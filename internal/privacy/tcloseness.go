package privacy

import (
	"fmt"
	"math"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// Support is the canonical order of ALL values of a sensitive column, so
// every class distribution shares one support, together with the column's
// own distribution over it. An ordered support sorts numerically when
// every value is a number; otherwise, and always for a nominal one, the
// order is by Value.Key.
type Support struct {
	// Pos maps a dictionary code of the column to its place in the order.
	Pos []int
	// Global is the column's distribution over the order.
	Global []float64
	// Ordered selects the ordered-distance ground metric of EMD.
	Ordered bool
}

// NewSupport establishes the support of a dictionary-encoded column. The
// order is that of sorting the distinct values in first-appearance order,
// which is dictionary order.
func NewSupport(col *dataset.Column, ordered bool) *Support {
	dict, keys := col.Dict(), col.DictKeys()
	order := make([]int, len(dict))
	for c := range order {
		order[c] = c
	}
	if ordered && col.IsNumeric() {
		sort.Slice(order, func(i, j int) bool { return dict[order[i]].Float() < dict[order[j]].Float() })
	} else {
		sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	}
	tally := make([]int, len(dict))
	for _, c := range col.Codes() {
		tally[c]++
	}
	s := &Support{Pos: make([]int, len(dict)), Global: make([]float64, len(dict)), Ordered: ordered}
	n := float64(col.Len())
	for i, c := range order {
		s.Pos[c] = i
		s.Global[i] = float64(tally[c]) / n
	}
	return s
}

// ClassEMD returns the earth mover's distance between one class's
// sensitive distribution and the column's — the quantity t-closeness
// bounds per class. The class is its histogram entries: codes sens with
// counts hist. Each entry's probability is its count over the class size,
// one division, placed at the code's position in local (scratch of
// len(Global)).
func (s *Support) ClassEMD(sens, hist []uint32, local []float64) float64 {
	clear(local)
	size := 0
	for _, n := range hist {
		size += int(n)
	}
	for e, v := range sens {
		local[s.Pos[v]] = float64(hist[e]) / float64(size)
	}
	return EMD(local, s.Global, s.Ordered)
}

// classEMDs prices every class against the support.
func classEMDs(h *eqclass.Histograms, s *Support) []float64 {
	local := make([]float64, len(s.Global))
	out := make([]float64, h.Len())
	for c := range out {
		sens, hist := h.Class(c)
		out[c] = s.ClassEMD(sens, hist, local)
	}
	return out
}

// TCloseness computes the t of the classes under Li et al.'s t-closeness:
// the maximum earth mover's distance between any class's sensitive-value
// distribution and the global distribution. The support's ground distance
// is the equal-distance metric for nominal attributes (EMD = total
// variation distance) or, ordered, the ordered-distance metric for numeric
// or ordinal ones. h and s must come from the same column.
func TCloseness(h *eqclass.Histograms, s *Support) (float64, error) {
	if h.Len() == 0 {
		return 0, fmt.Errorf("privacy: t-closeness of empty partition")
	}
	worst := 0.0
	for _, d := range classEMDs(h, s) {
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}

// TClosenessVector assigns every tuple the EMD between its class's
// sensitive distribution and the global one — a per-tuple t-closeness
// property. Under the paper's higher-is-better convention callers should
// negate it (lower distance means better privacy).
func TClosenessVector(p *eqclass.Partition, h *eqclass.Histograms, s *Support) ([]float64, error) {
	if err := checkShape(p, nil, h); err != nil {
		return nil, err
	}
	perClass := classEMDs(h, s)
	out := make([]float64, p.N())
	for i := range out {
		out[i] = perClass[p.ClassOf[i]]
	}
	return out, nil
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
