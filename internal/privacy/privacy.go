// Package privacy implements the privacy models surveyed by the paper —
// k-anonymity, ℓ-diversity (distinct, entropy and recursive (c,ℓ)
// variants), t-closeness, p-sensitive k-anonymity and personalized
// (guarding-node) privacy — both as boolean checks over an equivalence-class
// partition and as per-tuple property-vector sources for package core.
package privacy

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// KAnonymity returns the k of the partition: the minimum equivalence class
// size (0 for an empty partition). It is the unary quality index P_k-anon
// applied at the source.
func KAnonymity(p *eqclass.Partition) int { return p.MinSize() }

// IsKAnonymous reports whether every equivalence class has at least k
// members. k must be positive.
func IsKAnonymous(p *eqclass.Partition, k int) (bool, error) {
	if k < 1 {
		return false, fmt.Errorf("privacy: k must be positive, got %d", k)
	}
	if p.N() == 0 {
		return false, nil
	}
	return p.MinSize() >= k, nil
}

// ClassSizeVector is the paper's privacy property vector for k-anonymity:
// element i is the size of tuple i's equivalence class.
func ClassSizeVector(p *eqclass.Partition) []float64 { return p.SizeVector() }

// DistinctLDiversity returns the ℓ of distinct ℓ-diversity: the minimum
// number of distinct sensitive values in any equivalence class.
func DistinctLDiversity(p *eqclass.Partition, sensitive []dataset.Value) (int, error) {
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return 0, err
	}
	return DistinctLFromCounts(counts), nil
}

// DistinctLFromCounts is DistinctLDiversity computed from precomputed
// per-class sensitive histograms (Partition.ValueCounts output).
func DistinctLFromCounts(counts []map[string]int) int {
	if len(counts) == 0 {
		return 0
	}
	min := len(counts[0])
	for _, m := range counts[1:] {
		if len(m) < min {
			min = len(m)
		}
	}
	return min
}

// IsDistinctLDiverse reports whether every class holds at least l distinct
// sensitive values.
func IsDistinctLDiverse(p *eqclass.Partition, sensitive []dataset.Value, l int) (bool, error) {
	if l < 1 {
		return false, fmt.Errorf("privacy: l must be positive, got %d", l)
	}
	got, err := DistinctLDiversity(p, sensitive)
	if err != nil {
		return false, err
	}
	if p.N() == 0 {
		return false, nil
	}
	return got >= l, nil
}

// EntropyLDiversity returns the entropy ℓ of the partition: exp of the
// minimum class entropy of the sensitive distribution. A partition is
// entropy ℓ-diverse when the returned value is at least ℓ.
func EntropyLDiversity(p *eqclass.Partition, sensitive []dataset.Value) (float64, error) {
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return 0, err
	}
	return EntropyLFromCounts(counts)
}

// EntropyLFromCounts is EntropyLDiversity computed from precomputed
// per-class sensitive histograms (Partition.ValueCounts output).
func EntropyLFromCounts(counts []map[string]int) (float64, error) {
	if len(counts) == 0 {
		return 0, fmt.Errorf("privacy: entropy ℓ-diversity of empty partition")
	}
	minL := math.Inf(1)
	for _, m := range counts {
		if l := ClassEntropyL(m); l < minL {
			minL = l
		}
	}
	return minL, nil
}

// ClassEntropyL is exp of the Shannon entropy of one class's sensitive
// value counts — the ℓ of entropy ℓ-diversity for that class — or 0 for an
// empty class. It is EntropyL over the map's counts, so the result is
// bit-identical however the map iterates.
func ClassEntropyL(counts map[string]int) float64 {
	var buf [16]int
	cs := buf[:0]
	for _, c := range counts {
		cs = append(cs, c)
	}
	return EntropyL(cs)
}

// EntropyL is ClassEntropyL over a class's sensitive value counts given as
// a slice, in any order: the −q·ln q terms are summed in ascending count
// order (counts is sorted in place), so the result depends only on the
// multiset of counts.
func EntropyL(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	slices.Sort(counts)
	h := 0.0
	for _, c := range counts {
		q := float64(c) / float64(total)
		h -= q * math.Log(q)
	}
	return math.Exp(h)
}

// RecursiveCL reports whether one class with the given sensitive value
// counts (any order; sorted in place, descending) is recursive
// (c,ℓ)-diverse: r_1 < c·(r_ℓ + … + r_m). A class with fewer than ℓ
// distinct values has an empty tail and never is.
func RecursiveCL(counts []int, c float64, l int) bool {
	if l > len(counts) {
		return false
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	tail := 0
	for _, f := range counts[l-1:] {
		tail += f
	}
	return float64(counts[0]) < c*float64(tail)
}

// RecursiveCLDiversity reports whether the partition is recursive (c,ℓ)-
// diverse (Machanavajjhala et al.): in every class, with sensitive value
// frequencies r_1 >= r_2 >= ... >= r_m, it must hold that
// r_1 < c · (r_l + r_{l+1} + ... + r_m).
func RecursiveCLDiversity(p *eqclass.Partition, sensitive []dataset.Value, c float64, l int) (bool, error) {
	if l < 1 {
		return false, fmt.Errorf("privacy: l must be positive, got %d", l)
	}
	if c <= 0 || math.IsNaN(c) {
		return false, fmt.Errorf("privacy: c must be positive, got %v", c)
	}
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return false, err
	}
	if len(counts) == 0 {
		return false, nil
	}
	for _, m := range counts {
		freqs := make([]int, 0, len(m))
		for _, cnt := range m {
			freqs = append(freqs, cnt)
		}
		if !RecursiveCL(freqs, c, l) {
			return false, nil
		}
	}
	return true, nil
}

// SensitiveCountVector is the paper's §3 ℓ-diversity property vector:
// element i counts tuple i's sensitive value within its class.
func SensitiveCountVector(p *eqclass.Partition, sensitive []dataset.Value) ([]float64, error) {
	return p.SensitiveCountVector(sensitive)
}

// DistinctCountVector assigns every tuple the number of distinct sensitive
// values in its class — a per-tuple view of distinct ℓ-diversity.
func DistinctCountVector(p *eqclass.Partition, sensitive []dataset.Value) ([]float64, error) {
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return nil, err
	}
	return DistinctCountVectorFromCounts(p, counts)
}

// checkCounts validates precomputed per-class histograms against the
// partition shape, shared by the FromCounts vector sources.
func checkCounts(p *eqclass.Partition, counts []map[string]int) error {
	if len(counts) != p.NumClasses() {
		return fmt.Errorf("privacy: %d class histograms for %d classes", len(counts), p.NumClasses())
	}
	return nil
}

// SensitiveCountVectorFromCounts is SensitiveCountVector computed from
// precomputed per-class sensitive histograms (Partition.ValueCounts
// output), letting callers tally the column once and share it across
// several vector sources.
func SensitiveCountVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int) ([]float64, error) {
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	if err := checkCounts(p, counts); err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = float64(counts[p.ClassOf[i]][sensitive[i].Key()])
	}
	return out, nil
}

// DistinctCountVectorFromCounts is DistinctCountVector computed from
// precomputed per-class histograms.
func DistinctCountVectorFromCounts(p *eqclass.Partition, counts []map[string]int) ([]float64, error) {
	if err := checkCounts(p, counts); err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = float64(len(counts[p.ClassOf[i]]))
	}
	return out, nil
}

// BreachProbabilityVectorFromCounts is BreachProbabilityVector computed
// from precomputed per-class histograms.
func BreachProbabilityVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int) ([]float64, error) {
	counted, err := SensitiveCountVectorFromCounts(p, sensitive, counts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = counted[i] / float64(p.Size(i))
	}
	return out, nil
}

// BreachProbabilityVector assigns every tuple the adversary's linking
// probability under the paper's §1 reading: the frequency of the tuple's
// own sensitive value within its class divided by the class size. Tuples
// {2,3,5,6,7,9,10} of T3b get 1/7-style low probabilities only when the
// sensitive values are distinct; with the class-size property the paper
// quotes 1/|class| as the re-identification bound, which this vector
// reduces to when all sensitive values in a class are unique.
func BreachProbabilityVector(p *eqclass.Partition, sensitive []dataset.Value) ([]float64, error) {
	counts, err := p.SensitiveCountVector(sensitive)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = counts[i] / float64(p.Size(i))
	}
	return out, nil
}

// ReidentificationVector is the per-tuple re-identification probability
// 1/|class| — the "probability of privacy breach" the paper's §1 uses
// (1/3 for T3a's tuples, 1/7 for most of T3b's).
func ReidentificationVector(p *eqclass.Partition) []float64 {
	out := make([]float64, p.N())
	for i := range out {
		out[i] = 1 / float64(p.Size(i))
	}
	return out
}
