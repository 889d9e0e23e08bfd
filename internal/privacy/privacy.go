// Package privacy implements the privacy models surveyed by the paper —
// k-anonymity, ℓ-diversity (distinct, entropy and recursive (c,ℓ)
// variants), t-closeness, p-sensitive k-anonymity and personalized
// (guarding-node) privacy — both as boolean checks over an equivalence-class
// partition and as per-tuple property-vector sources for package core.
//
// The ℓ-diversity, t-closeness, p-sensitive and sensitive-count models
// read one input: each class's histogram of the sensitive column's
// dictionary codes (eqclass.Histograms). t-closeness
// adds one Support per column — each code's place in the canonical value
// order and the column's distribution over it — and prices a class with
// Support.ClassEMD, one division count/size per entry.
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
// number of distinct sensitive values in any class (0 for no classes).
func DistinctLDiversity(h *eqclass.Histograms) int {
	if h.Len() == 0 {
		return 0
	}
	min := math.MaxInt
	for c := 0; c < h.Len(); c++ {
		if n := int(h.Off[c+1] - h.Off[c]); n < min {
			min = n
		}
	}
	return min
}

// EntropyLDiversity returns the entropy ℓ of the classes: exp of the
// minimum class entropy of the sensitive distribution. A partition is
// entropy ℓ-diverse when the returned value is at least ℓ.
func EntropyLDiversity(h *eqclass.Histograms) (float64, error) {
	if h.Len() == 0 {
		return 0, fmt.Errorf("privacy: entropy ℓ-diversity of empty partition")
	}
	minL := math.Inf(1)
	var counts []int
	for c := 0; c < h.Len(); c++ {
		_, hist := h.Class(c)
		counts = Counts(counts, hist)
		if l := EntropyL(counts); l < minL {
			minL = l
		}
	}
	return minL, nil
}

// Counts copies a class's histogram counts into buf, reusing its storage,
// for EntropyL and RecursiveCL: they reorder their argument, and
// histograms are shared read-only state.
func Counts(buf []int, hist []uint32) []int {
	buf = buf[:0]
	for _, n := range hist {
		buf = append(buf, int(n))
	}
	return buf
}

// EntropyL is exp of the Shannon entropy of one class's sensitive value
// counts — the ℓ of entropy ℓ-diversity for that class — or 0 for an
// empty class. The counts may come in any order: the −q·ln q terms are
// summed in ascending count order (counts is sorted in place), so the
// result depends only on the multiset of counts.
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

// entropyMargin is the relative margin δ of EntropyLAtLeast's bounds, and
// entropyBoundMaxD the most distinct values a class may hold for them to
// apply. δ must exceed the relative error r of EntropyL against exp(H).
// With u = 2⁻⁵³ and each division, Log, product and Exp within 1 ulp,
// each term −q·ln q is off by at most 4u|q ln q| + 2uq, and the
// recursive sum of d non-negative terms adds at most (d−1)u times their
// sum H ≤ ln d. So H is off by at most (d+4)u(H+1) and r ≤ (d+4)u(ln d+1)
// + 2u: 6.2e-7 at d = 2²⁸. The bound's own roundings (the count sums are
// exact integers, each conversion and product rounds once) add under 8u.
// Above 2²⁸ distinct values a class is computed in full.
const (
	entropyMargin    = 1e-6
	entropyBoundMaxD = 1 << 28
)

// EntropyLAtLeast reports EntropyL(counts) >= l-1e-12 for one class's
// histogram counts hist (nonzero, as in eqclass.Histograms), the entropy
// ℓ-diversity rule, deciding it without computing the entropy H wherever
// a bound settles it. For a class of N rows, d distinct values and
// counts nᵢ, N²/Σnᵢ² ≤ exp(H) ≤ d: Shannon entropy is at least the
// collision (Rényi-2) entropy and at most ln d. So a class with N² ≥
// l(1+δ)Σnᵢ² passes and one with d < (l−1e-12)(1−δ) fails; δ covers
// EntropyL's float error (entropyMargin), so the verdict is EntropyL's
// bit for bit. Otherwise the counts are copied into scratch, whose
// storage is reused and returned, and EntropyL decides.
func EntropyLAtLeast(hist []uint32, l float64, scratch []int) (bool, []int) {
	if d := len(hist); d <= entropyBoundMaxD {
		var n, sq uint64
		for _, c := range hist {
			n += uint64(c)
			sq += uint64(c) * uint64(c)
		}
		// Below 2³² rows N² fits a uint64 and Σnᵢ² ≤ N² does too.
		if n > 0 && n <= math.MaxUint32 && float64(n*n) >= l*(1+entropyMargin)*float64(sq) {
			return true, scratch
		}
		if float64(d) < (l-1e-12)*(1-entropyMargin) {
			return false, scratch
		}
	}
	scratch = Counts(scratch, hist)
	return EntropyL(scratch) >= l-1e-12, scratch
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

// SensitiveCountVector is the paper's §3 ℓ-diversity property vector:
// element i counts tuple i's sensitive value within its class. For T3a
// with Marital Status sensitive it is (2,2,1,2,2,1,2,1,2,1). The values
// are encoded once and counted as OwnCountVector counts a table's column.
func SensitiveCountVector(p *eqclass.Partition, sensitive []dataset.Value) ([]float64, error) {
	codes := make([]uint32, len(sensitive))
	for i := range codes {
		codes[i] = uint32(i)
	}
	col, err := dataset.ColumnFromCodes(sensitive, codes)
	if err != nil {
		return nil, err
	}
	h, err := p.Histograms(col)
	if err != nil {
		return nil, err
	}
	return OwnCountVector(p, col, h)
}

// checkShape rejects histograms or a column that do not belong to the
// partition.
func checkShape(p *eqclass.Partition, col *dataset.Column, h *eqclass.Histograms) error {
	if col != nil && col.Len() != p.N() {
		return fmt.Errorf("privacy: sensitive column has %d values for %d rows", col.Len(), p.N())
	}
	if h.Len() != p.NumClasses() {
		return fmt.Errorf("privacy: %d class histograms for %d classes", h.Len(), p.NumClasses())
	}
	return nil
}

// OwnCountVector is SensitiveCountVector over a dictionary-encoded column
// and its class histograms (Partition.Histograms of the same column).
func OwnCountVector(p *eqclass.Partition, col *dataset.Column, h *eqclass.Histograms) ([]float64, error) {
	if err := checkShape(p, col, h); err != nil {
		return nil, err
	}
	codes := col.Codes()
	count := make([]uint32, col.Card()) // by code, the current class's counts
	out := make([]float64, p.N())
	for ci, rows := range p.Classes {
		sens, hist := h.Class(ci)
		for e, v := range sens {
			count[v] = hist[e]
		}
		for _, r := range rows {
			out[r] = float64(count[codes[r]])
		}
	}
	return out, nil
}

// DistinctCountVector assigns every tuple the number of distinct sensitive
// values in its class — a per-tuple view of distinct ℓ-diversity.
func DistinctCountVector(p *eqclass.Partition, h *eqclass.Histograms) ([]float64, error) {
	if err := checkShape(p, nil, h); err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		c := p.ClassOf[i]
		out[i] = float64(h.Off[c+1] - h.Off[c])
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
func BreachProbabilityVector(p *eqclass.Partition, col *dataset.Column, h *eqclass.Histograms) ([]float64, error) {
	out, err := OwnCountVector(p, col, h)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] /= float64(p.Size(i))
	}
	return out, nil
}
