package privacy

import (
	"fmt"
	"math"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// TCloseness computes the t of the partition under Li et al.'s t-closeness:
// the maximum earth mover's distance between any class's sensitive-value
// distribution and the global distribution. The ground distance is chosen
// by ordered: false uses the equal-distance metric for nominal attributes
// (EMD = total variation distance), true uses the ordered-distance metric
// for numeric or ordinal attributes.
func TCloseness(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) (float64, error) {
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return 0, err
	}
	return TClosenessFromCounts(p, sensitive, counts, ordered)
}

// TClosenessFromCounts is TCloseness computed from precomputed per-class
// sensitive histograms (Partition.ValueCounts output).
func TClosenessFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) (float64, error) {
	if p.N() == 0 {
		return 0, fmt.Errorf("privacy: t-closeness of empty partition")
	}
	perClass, err := classEMDs(p, sensitive, counts, ordered)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, d := range perClass {
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// IsTClose reports whether the partition satisfies t-closeness at threshold t.
func IsTClose(p *eqclass.Partition, sensitive []dataset.Value, t float64, ordered bool) (bool, error) {
	if t < 0 || t > 1 || math.IsNaN(t) {
		return false, fmt.Errorf("privacy: t must be in [0,1], got %v", t)
	}
	got, err := TCloseness(p, sensitive, ordered)
	if err != nil {
		return false, err
	}
	return got <= t+1e-12, nil
}

// TClosenessVector assigns every tuple the EMD between its class's
// sensitive distribution and the global one — a per-tuple t-closeness
// property. Under the paper's higher-is-better convention callers should
// negate it (lower distance means better privacy).
func TClosenessVector(p *eqclass.Partition, sensitive []dataset.Value, ordered bool) ([]float64, error) {
	counts, err := p.ValueCounts(sensitive)
	if err != nil {
		return nil, err
	}
	return TClosenessVectorFromCounts(p, sensitive, counts, ordered)
}

// TClosenessVectorFromCounts is TClosenessVector computed from precomputed
// per-class sensitive histograms (Partition.ValueCounts output). The class
// distributions come from the integer tallies — exact in float64 — so the
// result is identical to TClosenessVector's.
func TClosenessVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) ([]float64, error) {
	perClass, err := classEMDs(p, sensitive, counts, ordered)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = perClass[p.ClassOf[i]]
	}
	return out, nil
}

// ClassEMD returns the earth mover's distance between the sensitive-value
// distribution of the selected rows and the distribution of the whole
// column — the quantity t-closeness bounds per equivalence class.
func ClassEMD(col []dataset.Value, rows []int, ordered bool) (float64, error) {
	if len(col) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty column")
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty class")
	}
	counts := make(map[string]int)
	for _, r := range rows {
		if r < 0 || r >= len(col) {
			return 0, fmt.Errorf("privacy: ClassEMD row %d out of range", r)
		}
		counts[col[r].Key()]++
	}
	s := newSupport(col, ordered)
	return s.emd(counts, make([]float64, len(s.keys)))
}

// classEMDs prices every class against the column: element ci is the EMD
// between class ci's histogram and the whole column's distribution, all
// over one support established in a single pass over the column.
func classEMDs(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) ([]float64, error) {
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	if err := checkCounts(p, counts); err != nil {
		return nil, err
	}
	s := newSupport(sensitive, ordered)
	local := make([]float64, len(s.keys))
	out := make([]float64, len(counts))
	for ci, m := range counts {
		d, err := s.emd(m, local)
		if err != nil {
			return nil, err
		}
		out[ci] = d
	}
	return out, nil
}

// support is the canonical order of ALL values appearing in a sensitive
// column, so every class distribution shares one support, together with
// the column's own distribution over it. Ordered attributes sort
// numerically when every value is a number, else lexicographically.
type support struct {
	keys    []string
	pos     map[string]int
	global  []float64
	ordered bool
}

// newSupport establishes the support of the column in one pass.
func newSupport(col []dataset.Value, ordered bool) *support {
	first := map[string]int{}
	var keys []string
	var tally []int
	numeric := true
	nums := map[string]float64{}
	for _, v := range col {
		k := v.Key()
		i, ok := first[k]
		if !ok {
			i = len(keys)
			first[k] = i
			keys = append(keys, k)
			tally = append(tally, 0)
			if v.Kind() == dataset.Num {
				nums[k] = v.Float()
			} else {
				numeric = false
			}
		}
		tally[i]++
	}
	if ordered && numeric {
		sort.Slice(keys, func(i, j int) bool { return nums[keys[i]] < nums[keys[j]] })
	} else {
		sort.Strings(keys)
	}
	s := &support{keys: keys, pos: make(map[string]int, len(keys)), global: make([]float64, len(keys)), ordered: ordered}
	n := float64(len(col))
	for i, k := range keys {
		s.pos[k] = i
		s.global[i] = float64(tally[first[k]]) / n
	}
	return s
}

// emd returns the EMD between the class with the given value counts and
// the column. The class distribution is aligned on the support in local
// (scratch of len(keys)), each entry its count over the class size; the
// integer tallies are exact in float64, so the distance does not depend on
// how the counts were gathered.
func (s *support) emd(counts map[string]int, local []float64) (float64, error) {
	clear(local)
	total := 0.0
	for k, c := range counts {
		j, ok := s.pos[k]
		if !ok {
			return 0, fmt.Errorf("privacy: histogram key %q not in sensitive column", k)
		}
		local[j] = float64(c)
		total += float64(c)
	}
	if total > 0 {
		for i := range local {
			local[i] /= total
		}
	}
	return EMD(local, s.global, s.ordered), nil
}

// Support returns the canonical order of the sensitive column's values —
// the support every class distribution shares — and the column's own
// distribution over it, as TCloseness computes them. A class distribution
// aligned on the same keys, each entry its count over the class size, is
// what EMD compares against the global one.
func Support(sensitive []dataset.Value, ordered bool) (keys []string, global []float64) {
	s := newSupport(sensitive, ordered)
	return s.keys, s.global
}

// EMD computes the earth mover's distance between two aligned
// distributions. For the equal-distance ground metric (nominal attributes)
// EMD reduces to the total variation distance ½Σ|p−q|. For the ordered
// metric it is (1/(m−1))·Σ_i |Σ_{j<=i}(p_j − q_j)| (Li et al. 2007).
func EMD(p, q []float64, ordered bool) float64 {
	if len(p) != len(q) {
		return math.NaN()
	}
	if !ordered {
		s := 0.0
		for i := range p {
			s += math.Abs(p[i] - q[i])
		}
		return s / 2
	}
	m := len(p)
	if m == 1 {
		return 0
	}
	cum, s := 0.0, 0.0
	for i := 0; i < m; i++ {
		cum += p[i] - q[i]
		s += math.Abs(cum)
	}
	return s / float64(m-1)
}
