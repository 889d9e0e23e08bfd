// Package mondrian implements LeFevre et al.'s Mondrian multidimensional
// k-anonymity (paper §6): a top-down, local-recoding algorithm that
// recursively splits the tuple set at the median of the quasi-identifier
// with the widest normalized range, stopping when no allowable cut leaves
// both halves with at least k tuples.
//
// Strict mode keeps all tuples sharing a value on the same side of a cut;
// Relaxed mode splits ties to balance the halves (guaranteeing progress
// whenever a region holds 2k or more tuples).
//
// Being a local recoding, Mondrian does not use a generalization lattice;
// each final region is generalized minimally on its own: numeric columns to
// the region's value hull (rendered in the library's (lo,hi] interval
// notation with the low endpoint attained), categorical columns to the
// lowest common taxonomy ancestor when cfg.Taxonomies has one, else to the
// longest common prefix for fixed-length codes, else to suppression.
package mondrian

import (
	"context"
	"fmt"
	"sort"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/privacy"
	"microdata/internal/telemetry"
)

// Mondrian is the multidimensional partitioning k-anonymizer.
type Mondrian struct {
	// Relaxed selects relaxed (tie-splitting) partitioning.
	Relaxed bool
}

// New returns a strict-mode Mondrian.
func New() *Mondrian { return &Mondrian{} }

// NewRelaxed returns a relaxed-mode Mondrian.
func NewRelaxed() *Mondrian { return &Mondrian{Relaxed: true} }

// Name implements algorithm.Algorithm.
func (m *Mondrian) Name() string {
	if m.Relaxed {
		return "mondrian-relaxed"
	}
	return "mondrian"
}

// Anonymize implements algorithm.Algorithm.
func (m *Mondrian) Anonymize(t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return m.AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext implements algorithm.ContextAlgorithm; the recursive
// partitioning aborts with the context's error as soon as cancellation is
// seen.
func (m *Mondrian) AnonymizeContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	ctx, sp := telemetry.Start(ctx, m.Name()+".search",
		telemetry.Int("k", cfg.K), telemetry.Bool("relaxed", m.Relaxed))
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	cutsC := reg.Counter(m.Name() + ".cuts")
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	qi := t.Schema.QuasiIdentifiers()
	// Global normalization spans per attribute.
	spans := make([]float64, len(qi))
	for d, j := range qi {
		spans[d] = m.span(t, j, allRows(t.Len()))
		if spans[d] == 0 {
			spans[d] = 1
		}
	}
	// Allowable-cut validity: both sides must meet k and every configured
	// secondary privacy property (ℓ-diverse / t-close Mondrian).
	var sensitive []dataset.Value
	if cfg.MinLDiversity > 0 || cfg.MaxTCloseness > 0 || cfg.MinEntropyL > 0 || (cfg.RecursiveC > 0 && cfg.RecursiveL > 0) {
		sensitive = t.Column(t.Schema.SensitiveIndex())
	}
	// t-closeness prices a candidate as the engine prices a class: the
	// column's support and each row's place in it are fixed once per run,
	// and a candidate's distribution is its counts over its size.
	var global, local []float64
	var supportPos []int
	if cfg.MaxTCloseness > 0 {
		var keys []string
		keys, global = privacy.Support(sensitive, false)
		at := make(map[string]int, len(keys))
		for i, k := range keys {
			at[k] = i
		}
		supportPos = make([]int, len(sensitive))
		for r, v := range sensitive {
			supportPos[r] = at[v.Key()]
		}
		local = make([]float64, len(keys))
	}
	valid := func(rows []int) bool {
		if len(rows) < cfg.K {
			return false
		}
		if cfg.MinLDiversity > 0 {
			distinct := map[string]struct{}{}
			for _, r := range rows {
				distinct[sensitive[r].Key()] = struct{}{}
			}
			if len(distinct) < cfg.MinLDiversity {
				return false
			}
		}
		if cfg.MaxTCloseness > 0 {
			clear(local)
			for _, r := range rows {
				local[supportPos[r]]++
			}
			total := float64(len(rows))
			for i := range local {
				local[i] /= total
			}
			if privacy.EMD(local, global, false) > cfg.MaxTCloseness+1e-12 {
				return false
			}
		}
		if cfg.RecursiveC > 0 && cfg.RecursiveL > 0 {
			counts := map[string]int{}
			for _, r := range rows {
				counts[sensitive[r].Key()]++
			}
			freqs := make([]int, 0, len(counts))
			for _, f := range counts {
				freqs = append(freqs, f)
			}
			if !privacy.RecursiveCL(freqs, cfg.RecursiveC, cfg.RecursiveL) {
				return false
			}
		}
		if cfg.MinEntropyL > 0 {
			counts := map[string]int{}
			for _, r := range rows {
				counts[sensitive[r].Key()]++
			}
			if privacy.ClassEntropyL(counts) < cfg.MinEntropyL-1e-12 {
				return false
			}
		}
		return true
	}
	var regions [][]int
	var cancelErr error
	var partition func(rows []int)
	partition = func(rows []int) {
		if cancelErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			cancelErr = err
			return
		}
		if len(rows) >= 2*cfg.K {
			// Try dimensions in decreasing normalized width.
			order := m.dimensionOrder(t, qi, rows, spans)
			for _, d := range order {
				left, right, ok := m.split(t, qi[d], rows, cfg.K, valid)
				if ok {
					cutsC.Inc()
					partition(left)
					partition(right)
					return
				}
			}
		}
		regions = append(regions, rows)
	}
	partition(allRows(t.Len()))
	if cancelErr != nil {
		return nil, fmt.Errorf("mondrian: %w", cancelErr)
	}

	_, msp := telemetry.Start(ctx, "algorithm.materialize",
		telemetry.String("algorithm", m.Name()))
	defer msp.End()
	anon := t.Clone()
	for _, region := range regions {
		for _, j := range qi {
			v, err := m.generalizeRegion(t, j, region, cfg)
			if err != nil {
				return nil, fmt.Errorf("mondrian: %w", err)
			}
			for _, r := range region {
				anon.Rows[r][j] = v
			}
		}
	}
	anon.InvalidateColumns()
	p, err := eqclass.FromGroups(t.Len(), regions)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	if ok, err := algorithm.SatisfiesConstraints(p, anon, cfg); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	} else if !ok {
		return nil, fmt.Errorf("mondrian: the table cannot satisfy the privacy constraints without suppression (whole-table region already violates them)")
	}
	reg.Gauge(m.Name() + ".regions").Set(float64(len(regions)))
	stats := map[string]float64{}
	reg.Snapshot().MergeInto(stats, m.Name()+".")
	telemetry.L().Info("mondrian: partitioning complete", "algorithm", m.Name(),
		"cuts", cutsC.Value(), "regions", len(regions))
	return &algorithm.Result{
		Algorithm: m.Name(),
		Table:     anon,
		Partition: p,
		Stats:     stats,
	}, nil
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// span measures the width of a region along one attribute: numeric range
// for Numeric columns, distinct-count for categorical ones.
func (m *Mondrian) span(t *dataset.Table, col int, rows []int) float64 {
	if t.Schema.Attrs[col].Kind == dataset.Numeric {
		lo, hi, any := 0.0, 0.0, false
		for _, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Num {
				continue
			}
			x := v.Float()
			if !any {
				lo, hi, any = x, x, true
			} else if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	seen := map[string]struct{}{}
	for _, r := range rows {
		seen[t.At(r, col).Key()] = struct{}{}
	}
	return float64(len(seen) - 1)
}

// dimensionOrder ranks quasi-identifier dimensions by decreasing normalized
// span within the region.
func (m *Mondrian) dimensionOrder(t *dataset.Table, qi []int, rows []int, spans []float64) []int {
	type dw struct {
		d int
		w float64
	}
	ws := make([]dw, len(qi))
	for d, j := range qi {
		ws[d] = dw{d, m.span(t, j, rows) / spans[d]}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].w > ws[b].w })
	out := make([]int, len(ws))
	for i, x := range ws {
		out[i] = x.d
	}
	return out
}

// sortKey orders rows along a column: numerically for Numeric, by value key
// for categorical.
func (m *Mondrian) sortRows(t *dataset.Table, col int, rows []int) []int {
	s := append([]int(nil), rows...)
	numeric := t.Schema.Attrs[col].Kind == dataset.Numeric
	sort.SliceStable(s, func(a, b int) bool {
		va, vb := t.At(s[a], col), t.At(s[b], col)
		if numeric && va.Kind() == dataset.Num && vb.Kind() == dataset.Num {
			return va.Float() < vb.Float()
		}
		return va.Key() < vb.Key()
	})
	return s
}

// split attempts a median cut along the column; both sides must pass the
// validity check (k plus any secondary privacy properties). Returns
// ok=false when no allowable cut exists.
func (m *Mondrian) split(t *dataset.Table, col int, rows []int, k int, valid func([]int) bool) (left, right []int, ok bool) {
	if len(rows) < 2*k {
		return nil, nil, false
	}
	s := m.sortRows(t, col, rows)
	if m.Relaxed {
		mid := len(s) / 2
		if valid(s[:mid]) && valid(s[mid:]) {
			return s[:mid], s[mid:], true
		}
		return nil, nil, false
	}
	// Strict: cut only between distinct values; try the boundary nearest
	// the median first.
	mid := len(s) / 2
	key := func(i int) string { return t.At(s[i], col).Key() }
	var boundaries []int
	for i := 1; i < len(s); i++ {
		if key(i) != key(i-1) {
			boundaries = append(boundaries, i)
		}
	}
	sort.SliceStable(boundaries, func(a, b int) bool {
		return abs(boundaries[a]-mid) < abs(boundaries[b]-mid)
	})
	for _, cut := range boundaries {
		if cut >= k && len(s)-cut >= k && valid(s[:cut]) && valid(s[cut:]) {
			return s[:cut], s[cut:], true
		}
	}
	return nil, nil, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// generalizeRegion produces the minimal generalized value for one column of
// a final region.
func (m *Mondrian) generalizeRegion(t *dataset.Table, col int, rows []int, cfg algorithm.Config) (dataset.Value, error) {
	attr := t.Schema.Attrs[col]
	first := t.At(rows[0], col)
	uniform := true
	for _, r := range rows[1:] {
		if !t.At(r, col).Equal(first) {
			uniform = false
			break
		}
	}
	if uniform {
		return first, nil
	}
	if attr.Kind == dataset.Numeric {
		lo, hi := 0.0, 0.0
		for i, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Num {
				return dataset.Value{}, fmt.Errorf("non-ground numeric cell in column %q", attr.Name)
			}
			x := v.Float()
			if i == 0 {
				lo, hi = x, x
			} else if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		return dataset.IntervalVal(lo, hi), nil
	}
	// Categorical: taxonomy LCA if available.
	if tax := cfg.Taxonomies[attr.Name]; tax != nil {
		grounds := make([]string, len(rows))
		for i, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Str {
				return dataset.Value{}, fmt.Errorf("non-ground categorical cell in column %q", attr.Name)
			}
			grounds[i] = v.Text()
		}
		label, isRoot, err := tax.LCA(grounds)
		if err != nil {
			return dataset.Value{}, err
		}
		if isRoot {
			return dataset.StarVal(), nil
		}
		return dataset.SetVal(label), nil
	}
	// Fixed-length codes: longest common prefix.
	if v, ok := m.commonPrefix(t, col, rows); ok {
		return v, nil
	}
	return dataset.StarVal(), nil
}

// commonPrefix generalizes equal-length string codes to their shared prefix.
func (m *Mondrian) commonPrefix(t *dataset.Table, col int, rows []int) (dataset.Value, bool) {
	first := t.At(rows[0], col)
	if first.Kind() != dataset.Str {
		return dataset.Value{}, false
	}
	base := first.Text()
	n := len(base)
	common := n
	for _, r := range rows[1:] {
		v := t.At(r, col)
		if v.Kind() != dataset.Str || len(v.Text()) != n {
			return dataset.Value{}, false
		}
		s := v.Text()
		i := 0
		for i < common && s[i] == base[i] {
			i++
		}
		common = i
		if common == 0 {
			return dataset.StarVal(), true
		}
	}
	if common == n {
		return first, true
	}
	return dataset.PrefixVal(base[:common], n-common), true
}
