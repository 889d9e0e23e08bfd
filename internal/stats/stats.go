// Package stats provides the descriptive statistics the experiment harness
// uses to quantify anonymization bias: a skewed class-size or loss
// distribution is the paper's §1 "higher privacy for some individuals and
// minimalistic for others". None of these functions mutate their input.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation; NaN for empty input.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between closest ranks. It returns NaN for empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Gini returns the Gini coefficient of a non-negative distribution: 0 when
// every tuple enjoys the same property value, approaching 1 as the property
// concentrates on few tuples. The paper's anonymization bias is visible as
// a non-zero Gini of the property vector. Negative inputs are rejected.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: Gini of empty slice")
	}
	s := append([]float64(nil), xs...)
	total := 0.0
	for _, x := range s {
		if x < 0 || math.IsNaN(x) {
			return 0, fmt.Errorf("stats: Gini requires non-negative values, got %v", x)
		}
		total += x
	}
	if total == 0 {
		return 0, nil
	}
	sort.Float64s(s)
	// G = (2*sum(i*x_i) / (n*sum(x)) ) - (n+1)/n with 1-based ranks.
	n := float64(len(s))
	weighted := 0.0
	for i, x := range s {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(n*total) - (n+1)/n, nil
}

// Skewness returns the adjusted Fisher–Pearson sample skewness; NaN when
// fewer than 3 samples or zero variance.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return math.NaN()
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return math.NaN()
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Summary bundles the descriptive statistics the bias tables report.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
	Gini   float64
	Skew   float64
}

// Summarize computes a Summary of the vector. Gini is NaN when the vector
// contains negative values (loss differences can be negative).
func Summarize(xs []float64) Summary {
	g, err := Gini(xs)
	if err != nil {
		g = math.NaN()
	}
	return Summary{
		N:      len(xs),
		Min:    Min(xs),
		Q1:     Quantile(xs, 0.25),
		Median: Median(xs),
		Q3:     Quantile(xs, 0.75),
		Max:    Max(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Gini:   g,
		Skew:   Skewness(xs),
	}
}
