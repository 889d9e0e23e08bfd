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
	if len(sensitive) != p.N() {
		return 0, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	if p.N() == 0 {
		return 0, fmt.Errorf("privacy: t-closeness of empty partition")
	}
	// Establish the global distribution over a canonical value order.
	keys, global := distribution(sensitive, nil, ordered)
	worst := 0.0
	for _, rows := range p.Classes {
		_, local := distribution(sensitive, rows, ordered)
		// Align local to the global key order (distribution guarantees
		// identical key sets because it enumerates the global keys).
		d := EMD(local, global, ordered)
		if d > worst {
			worst = d
		}
	}
	_ = keys
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
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	perClass := make([]float64, p.NumClasses())
	_, global := distribution(sensitive, nil, ordered)
	for ci, rows := range p.Classes {
		_, local := distribution(sensitive, rows, ordered)
		perClass[ci] = EMD(local, global, ordered)
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = perClass[p.ClassOf[i]]
	}
	return out, nil
}

// TClosenessVectorFromCounts is TClosenessVector computed from precomputed
// per-class sensitive histograms (Partition.ValueCounts output). The class
// distributions come from the integer tallies — exact in float64 — so the
// result is identical to TClosenessVector's.
func TClosenessVectorFromCounts(p *eqclass.Partition, sensitive []dataset.Value, counts []map[string]int, ordered bool) ([]float64, error) {
	if len(sensitive) != p.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), p.N())
	}
	if err := checkCounts(p, counts); err != nil {
		return nil, err
	}
	keys, global := distribution(sensitive, nil, ordered)
	pos := make(map[string]int, len(keys))
	for i, k := range keys {
		pos[k] = i
	}
	perClass := make([]float64, p.NumClasses())
	local := make([]float64, len(keys))
	for ci, m := range counts {
		for i := range local {
			local[i] = 0
		}
		total := 0.0
		for k, cnt := range m {
			j, ok := pos[k]
			if !ok {
				return nil, fmt.Errorf("privacy: histogram key %q not in sensitive column", k)
			}
			local[j] = float64(cnt)
			total += float64(cnt)
		}
		if total > 0 {
			for i := range local {
				local[i] /= total
			}
		}
		perClass[ci] = EMD(local, global, ordered)
	}
	out := make([]float64, p.N())
	for i := range out {
		out[i] = perClass[p.ClassOf[i]]
	}
	return out, nil
}

// ClassEMD returns the earth mover's distance between the sensitive-value
// distribution of the selected rows and the distribution of the whole
// column — the quantity t-closeness bounds per equivalence class. Exposed
// for algorithms (Mondrian) that must check candidate classes before a
// partition exists.
func ClassEMD(col []dataset.Value, rows []int, ordered bool) (float64, error) {
	if len(col) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty column")
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("privacy: ClassEMD of empty class")
	}
	for _, r := range rows {
		if r < 0 || r >= len(col) {
			return 0, fmt.Errorf("privacy: ClassEMD row %d out of range", r)
		}
	}
	_, global := distribution(col, nil, ordered)
	_, local := distribution(col, rows, ordered)
	return EMD(local, global, ordered), nil
}

// distribution tallies the sensitive values of the selected rows (all rows
// when rows is nil) into a probability vector over the canonical ordering
// of ALL values appearing in the full column, so every distribution shares
// one support. Ordered attributes sort numerically when possible, else
// lexicographically.
func distribution(col []dataset.Value, rows []int, ordered bool) ([]string, []float64) {
	// Canonical key order over the whole column.
	seen := map[string]int{}
	var keys []string
	numeric := true
	nums := map[string]float64{}
	for _, v := range col {
		k := v.Key()
		if _, ok := seen[k]; !ok {
			seen[k] = 0
			keys = append(keys, k)
			if v.Kind() == dataset.Num {
				nums[k] = v.Float()
			} else {
				numeric = false
			}
		}
	}
	if ordered && numeric {
		sort.Slice(keys, func(i, j int) bool { return nums[keys[i]] < nums[keys[j]] })
	} else {
		sort.Strings(keys)
	}
	pos := make(map[string]int, len(keys))
	for i, k := range keys {
		pos[k] = i
	}
	counts := make([]float64, len(keys))
	total := 0.0
	add := func(v dataset.Value) {
		counts[pos[v.Key()]]++
		total++
	}
	if rows == nil {
		for _, v := range col {
			add(v)
		}
	} else {
		for _, r := range rows {
			add(col[r])
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return keys, counts
}

// Support returns the canonical order of the sensitive column's values —
// the support every class distribution shares — and the column's own
// distribution over it, as TCloseness computes them. A class distribution
// aligned on the same keys, each entry its count over the class size, is
// what EMD compares against the global one.
func Support(sensitive []dataset.Value, ordered bool) (keys []string, global []float64) {
	return distribution(sensitive, nil, ordered)
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
