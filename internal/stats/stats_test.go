package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{3, 3, 3, 3, 4, 4, 4, 3, 3, 4}
	if got := Mean(xs); got != 3.4 {
		t.Errorf("Mean = %v, want 3.4 (paper's P_s-avg of T3a)", got)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(0.24), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{5, -2, 7, 0}
	if Min(xs) != -2 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := map[float64]float64{0: 1, 1: 4, 0.5: 2.5, 0.25: 1.75}
	for q, want := range cases {
		if got := Quantile(xs, q); !approx(got, want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := Median([]float64{9}); got != 9 {
		t.Errorf("Median single = %v", got)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(Quantile(xs, q)) {
			t.Errorf("Quantile(%v) should be NaN", q)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty input should give NaN")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestGini(t *testing.T) {
	if g, err := Gini([]float64{5, 5, 5, 5}); err != nil || g != 0 {
		t.Errorf("uniform Gini = %v, %v", g, err)
	}
	// One tuple holds everything: G = (n-1)/n.
	if g, err := Gini([]float64{0, 0, 0, 10}); err != nil || !approx(g, 0.75, 1e-12) {
		t.Errorf("concentrated Gini = %v, %v", g, err)
	}
	if g, err := Gini([]float64{0, 0}); err != nil || g != 0 {
		t.Errorf("all-zero Gini = %v, %v", g, err)
	}
	if _, err := Gini(nil); err == nil {
		t.Error("empty Gini should fail")
	}
	if _, err := Gini([]float64{1, -1}); err == nil {
		t.Error("negative Gini should fail")
	}
	if _, err := Gini([]float64{math.NaN()}); err == nil {
		t.Error("NaN Gini should fail")
	}
}

func TestGiniRangeQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		g, err := Gini(xs)
		if err != nil {
			return false
		}
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSkewness(t *testing.T) {
	if !math.IsNaN(Skewness([]float64{1, 2})) {
		t.Error("too-few samples should give NaN")
	}
	if !math.IsNaN(Skewness([]float64{2, 2, 2})) {
		t.Error("zero variance should give NaN")
	}
	if got := Skewness([]float64{1, 2, 3, 4, 5}); !approx(got, 0, 1e-12) {
		t.Errorf("symmetric skew = %v", got)
	}
	if got := Skewness([]float64{1, 1, 1, 10}); got <= 0 {
		t.Errorf("right-skewed data should have positive skew, got %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 3, 3, 3, 4, 4, 4, 3, 3, 4})
	if s.N != 10 || s.Min != 3 || s.Max != 4 || s.Mean != 3.4 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Median != 3 {
		t.Errorf("Median = %v", s.Median)
	}
	neg := Summarize([]float64{-1, 1})
	if !math.IsNaN(neg.Gini) {
		t.Error("negative values should give NaN Gini in Summary")
	}
}
