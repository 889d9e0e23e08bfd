package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestOutcomeStringAndFlip(t *testing.T) {
	if Tie.String() != "tie" || LeftBetter.String() != "left better" || RightBetter.String() != "right better" {
		t.Error("Outcome.String mismatch")
	}
	if !strings.Contains(Outcome(9).String(), "9") {
		t.Error("unknown outcome should include code")
	}
	if Tie.Flip() != Tie || LeftBetter.Flip() != RightBetter || RightBetter.Flip() != LeftBetter {
		t.Error("Flip mismatch")
	}
}

// Flip swaps left and right, the antisymmetry tests' reference.
func (o Outcome) Flip() Outcome {
	switch o {
	case LeftBetter:
		return RightBetter
	case RightBetter:
		return LeftBetter
	default:
		return o
	}
}

func TestCovBetterPaperExamples(t *testing.T) {
	cov := CovBetter()
	if cov.Name() != "cov" {
		t.Errorf("name = %q", cov.Name())
	}
	// §5.2: T4 is ▶cov-better than T3a, and T3b is ▶cov-better than T4.
	out, err := cov.Compare(sT4, sT3a)
	if err != nil || out != LeftBetter {
		t.Errorf("cov(T4, T3a) = %v, %v; want left better", out, err)
	}
	out, err = cov.Compare(tT3b, sT4)
	if err != nil || out != LeftBetter {
		t.Errorf("cov(T3b, T4) = %v, %v; want left better", out, err)
	}
	// §5.3 hypotheticals tie under coverage.
	d1 := PropertyVector{2, 2, 3, 4, 5}
	d2 := PropertyVector{3, 2, 4, 2, 3}
	out, err = cov.Compare(d1, d2)
	if err != nil || out != Tie {
		t.Errorf("cov(D1, D2) = %v, %v; want tie", out, err)
	}
}

func TestSprBetterPaperExamples(t *testing.T) {
	spr := SprBetter()
	// §5.3: the coverage tie is broken by spread in favor of D1.
	d1 := PropertyVector{2, 2, 3, 4, 5}
	d2 := PropertyVector{3, 2, 4, 2, 3}
	out, err := spr.Compare(d1, d2)
	if err != nil || out != LeftBetter {
		t.Errorf("spr(D1, D2) = %v, %v; want left better", out, err)
	}
	// §5.3: the 2-anonymous generalization beats the 3-anonymous one.
	three := PropertyVector{3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4}
	two := PropertyVector{2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4}
	out, err = spr.Compare(two, three)
	if err != nil || out != LeftBetter {
		t.Errorf("spr(2-anon, 3-anon) = %v, %v; want left better", out, err)
	}
	// But the classical ▶min comparator prefers the 3-anonymous one —
	// the bias the paper is after.
	out, err = MinBetter().Compare(three, two)
	if err != nil || out != LeftBetter {
		t.Errorf("min(3-anon, 2-anon) = %v, %v; want left better", out, err)
	}
}

func TestHvBetterPaperExample(t *testing.T) {
	hv := HvBetter()
	s := PropertyVector{3, 3, 3, 5, 5, 5, 5, 5}
	tt := PropertyVector{4, 4, 4, 4, 4, 4, 4, 4}
	out, err := hv.Compare(s, tt)
	if err != nil || out != LeftBetter {
		t.Errorf("hv(s, t) = %v, %v; want left better (Fig. 4 discussion)", out, err)
	}
	outLog, err := HvLogBetter().Compare(s, tt)
	if err != nil || outLog != out {
		t.Errorf("hv-log disagrees with hv: %v vs %v (%v)", outLog, out, err)
	}
}

func TestHvLogBetterRejectsNonPositive(t *testing.T) {
	_, err := HvLogBetter().Compare(PropertyVector{0, 1}, PropertyVector{1, 1})
	if err == nil {
		t.Error("hv-log with zero entries should error")
	}
}

func TestMinBetter(t *testing.T) {
	m := MinBetter()
	if m.Name() != "min" {
		t.Errorf("name = %q", m.Name())
	}
	out, err := m.Compare(PropertyVector{4, 9}, PropertyVector{3, 100})
	if err != nil || out != LeftBetter {
		t.Errorf("min compare = %v, %v", out, err)
	}
	out, _ = m.Compare(PropertyVector{3, 9}, PropertyVector{3, 100})
	if out != Tie {
		t.Errorf("equal minima should tie, got %v", out)
	}
	if _, err := m.Compare(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
	// ▶min on T3a vs T3b: both 3-anonymous, classical comparison sees a
	// tie — exactly the §1 motivation.
	out, _ = m.Compare(sT3a, tT3b)
	if out != Tie {
		t.Errorf("min(T3a, T3b) = %v, want tie", out)
	}
}

func TestRankBetter(t *testing.T) {
	// Dmax for the 10-tuple example: every tuple in one class of size 10.
	dmax := make(PropertyVector, 10)
	for i := range dmax {
		dmax[i] = 10
	}
	r := RankBetter{Dmax: dmax}
	if r.Name() != "rank" {
		t.Errorf("name = %q", r.Name())
	}
	// T3b is closer to the ideal than T3a.
	out, err := r.Compare(tT3b, sT3a)
	if err != nil || out != LeftBetter {
		t.Errorf("rank(T3b, T3a) = %v, %v; want left better", out, err)
	}
	// Tolerance folds close ranks into a tie.
	loose := RankBetter{Dmax: dmax, Eps: 1000}
	out, err = loose.Compare(tT3b, sT3a)
	if err != nil || out != Tie {
		t.Errorf("rank with huge eps = %v, %v; want tie", out, err)
	}
	// Errors.
	if _, err := r.Compare(PropertyVector{1}, PropertyVector{2}); err == nil {
		t.Error("Dmax size mismatch should fail")
	}
	bad := RankBetter{Dmax: dmax, Eps: -1}
	if _, err := bad.Compare(tT3b, sT3a); err == nil {
		t.Error("negative eps should fail")
	}
	nan := RankBetter{Dmax: dmax, Eps: math.NaN()}
	if _, err := nan.Compare(tT3b, sT3a); err == nil {
		t.Error("NaN eps should fail")
	}
}

// Antisymmetry: Compare(a,b) = Compare(b,a).Flip() for every comparator.
func TestComparatorAntisymmetryQuick(t *testing.T) {
	dmaxFor := func(n int) PropertyVector {
		d := make(PropertyVector, n)
		for i := range d {
			d[i] = 10
		}
		return d
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1500; i++ {
		n := rng.Intn(5) + 1
		a := make(PropertyVector, n)
		b := make(PropertyVector, n)
		for j := range a {
			a[j] = float64(rng.Intn(8) + 1)
			b[j] = float64(rng.Intn(8) + 1)
		}
		comparators := []Comparator{
			CovBetter(), SprBetter(), HvBetter(), HvLogBetter(),
			MinBetter(), RankBetter{Dmax: dmaxFor(n)},
		}
		for _, c := range comparators {
			ab, err1 := c.Compare(a, b)
			ba, err2 := c.Compare(b, a)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s errored: %v %v", c.Name(), err1, err2)
			}
			if ab != ba.Flip() {
				t.Fatalf("%s not antisymmetric for a=%v b=%v: %v vs %v", c.Name(), a, b, ab, ba)
			}
		}
	}
}

// Strong dominance must never be contradicted by the ▶-better comparators:
// if a ≻ b then no comparator may declare b better.
func TestComparatorsRespectDominanceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dmax := func(n int) PropertyVector {
		d := make(PropertyVector, n)
		for i := range d {
			d[i] = 20
		}
		return d
	}
	for i := 0; i < 1500; i++ {
		n := rng.Intn(5) + 1
		a := make(PropertyVector, n)
		b := make(PropertyVector, n)
		for j := range a {
			b[j] = float64(rng.Intn(8) + 1)
			a[j] = b[j] + float64(rng.Intn(3)) // a >= b element-wise
		}
		if s, _ := StronglyDominates(a, b); !s {
			continue
		}
		for _, c := range []Comparator{
			CovBetter(), SprBetter(), HvBetter(), HvLogBetter(),
			MinBetter(), RankBetter{Dmax: dmax(n)},
		} {
			out, err := c.Compare(a, b)
			if err != nil {
				t.Fatalf("%s errored: %v", c.Name(), err)
			}
			if out == RightBetter {
				t.Fatalf("%s declared dominated vector better: a=%v b=%v", c.Name(), a, b)
			}
		}
	}
}
