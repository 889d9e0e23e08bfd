// Package mondrian implements LeFevre et al.'s Mondrian multidimensional
// k-anonymity (paper §6): a top-down, local-recoding algorithm that
// recursively splits the tuple set at the median of the quasi-identifier
// with the widest normalized range, stopping when no allowable cut leaves
// both halves with at least k tuples.
//
// Strict mode keeps all tuples sharing a value on the same side of a cut;
// Relaxed mode splits ties to balance the halves (guaranteeing progress
// whenever a region holds 2k or more tuples). Strict mode is equivariant
// under a permutation of the input rows: the release of a permuted table
// is the same permutation of the release. Relaxed mode is not, because it
// splits a run of tied values in row order.
//
// Being a local recoding, Mondrian does not use a generalization lattice;
// each final region is generalized minimally on its own: numeric columns to
// the region's value hull (rendered in the library's (lo,hi] interval
// notation with the low endpoint attained), categorical columns to the
// lowest common taxonomy ancestor when cfg.Taxonomies has one, else to the
// longest common prefix for fixed-length codes, else to suppression.
//
// The partition works on the table's dictionary codes. Each
// quasi-identifier's dictionary is ranked once in cut order: in a Numeric
// column two numbers compare by value and anything else by Value.Key; in
// other columns every entry compares by Key. A NaN or ±Inf in a Numeric
// quasi-identifier is an error, as it is for the interval hierarchies: it
// has no finite hull, and NaN has no place in the order. -0 and +0 share a
// rank, so a cut keeps them in row order, but they are distinct values and
// strict mode may cut between them. A cut attempt on a region of n rows
// sorts it with a stable counting sort on rank in O(n + D), for a column
// of D distinct values; region widths come from code tallies in O(n) per
// dimension; and a candidate side is checked by the configuration's
// algorithm.ClassRule — k, ℓ, entropy ℓ, recursive (c,ℓ) and t — on its
// sensitive histogram, tallied in O(n).
package mondrian

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
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
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	p, err := m.newPartitioner(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	regions, err := p.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}

	_, msp := telemetry.Start(ctx, "algorithm.materialize",
		telemetry.String("algorithm", m.Name()))
	defer msp.End()
	// Each quasi-identifier column of the release has one dictionary
	// entry per region, and row r's code is its region's index.
	regionOf := make([]uint32, t.Len())
	for ri, region := range regions {
		for _, r := range region {
			regionOf[r] = uint32(ri)
		}
	}
	cols := t.Columns()
	dict := make([]dataset.Value, len(regions))
	for d, j := range t.Schema.QuasiIdentifiers() {
		tax := cfg.Taxonomies[t.Schema.Attrs[j].Name]
		for ri, region := range regions {
			v, err := p.dims[d].generalize(region, tax)
			if err != nil {
				return nil, fmt.Errorf("mondrian: %w", err)
			}
			dict[ri] = v
		}
		col, err := dataset.ColumnFromCodes(dict, regionOf)
		if err != nil {
			return nil, fmt.Errorf("mondrian: %w", err)
		}
		cols[j] = col
	}
	anon, err := dataset.TableOf(t.Schema, cols)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	part, err := eqclass.FromGroups(t.Len(), regions)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	if ok, err := algorithm.SatisfiesConstraints(part, anon, cfg); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	} else if !ok {
		return nil, fmt.Errorf("mondrian: the table cannot satisfy the privacy constraints without suppression (whole-table region already violates them)")
	}
	reg := telemetry.NewRunRegistry()
	reg.Counter(m.Name() + ".cuts").Add(p.cuts)
	reg.Counter(m.Name() + ".cut_attempts").Add(p.attempts)
	reg.Gauge(m.Name() + ".regions").Set(float64(len(regions)))
	stats := map[string]float64{}
	reg.Snapshot().MergeInto(stats, m.Name()+".")
	telemetry.L().Info("mondrian: partitioning complete", "algorithm", m.Name(),
		"cuts", p.cuts, "cut_attempts", p.attempts, "regions", len(regions))
	return &algorithm.Result{
		Algorithm: m.Name(),
		Table:     anon,
		Partition: part,
		Stats:     stats,
	}, nil
}

// dim is one quasi-identifier column as the partitioner sees it: the row
// codes, each dictionary entry's rank in cut order, and scratch.
type dim struct {
	name     string
	dict     []dataset.Value
	codes    []uint32
	rank     []uint32  // by code
	numeric  bool      // Numeric attribute: the width is a value range
	num      []bool    // by rank: the entry is a number (Numeric only)
	val      []float64 // by rank: the number (Numeric only)
	bins     []int     // by rank: counting-sort bins, zero between sorts
	seen     []uint32  // by code: stamp of the last tally that met it
	stamp    uint32
	distinct []uint32 // a region's distinct codes
}

// newDim ranks a quasi-identifier column's dictionary in cut order.
func newDim(col *dataset.Column, attr dataset.Attribute) (*dim, error) {
	dict, keys := col.Dict(), col.DictKeys()
	d := &dim{
		name:    attr.Name,
		dict:    dict,
		codes:   col.Codes(),
		rank:    make([]uint32, len(dict)),
		numeric: attr.Kind == dataset.Numeric,
		seen:    make([]uint32, len(dict)),
	}
	if d.numeric {
		d.num, d.val = make([]bool, len(dict)), make([]float64, len(dict))
	}
	isNum := func(c int) bool { return d.numeric && dict[c].Kind() == dataset.Num }
	for c := range dict {
		if !isNum(c) {
			continue
		}
		if x := dict[c].Float(); math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("column %q: non-finite value %v", attr.Name, x)
		}
	}
	compare := func(a, b int) int {
		if isNum(a) && isNum(b) {
			return cmp.Compare(dict[a].Float(), dict[b].Float())
		}
		return strings.Compare(keys[a], keys[b])
	}
	byRank := make([]int, len(dict))
	for c := range byRank {
		byRank[c] = c
	}
	slices.SortFunc(byRank, compare)
	rk := 0
	for i, c := range byRank {
		if i > 0 && compare(byRank[i-1], c) != 0 {
			rk++
		}
		d.rank[c] = uint32(rk)
		if isNum(c) {
			d.num[rk], d.val[rk] = true, dict[c].Float()
		}
	}
	d.bins = make([]int, rk+1)
	return d, nil
}

// nextStamp returns a stamp no entry of seen holds.
func (d *dim) nextStamp() uint32 {
	d.stamp++
	if d.stamp == 0 {
		clear(d.seen)
		d.stamp = 1
	}
	return d.stamp
}

// width measures a region along the dimension: the numeric range of its
// numbers for a Numeric attribute, its distinct values less one otherwise.
func (d *dim) width(rows []int) float64 {
	if d.numeric {
		lo, hi := -1, -1
		for _, r := range rows {
			rk := int(d.rank[d.codes[r]])
			if d.num[rk] {
				if lo < 0 || rk < lo {
					lo = rk
				}
				hi = max(hi, rk)
			}
		}
		if lo < 0 {
			return 0
		}
		return d.val[hi] - d.val[lo]
	}
	s, distinct := d.nextStamp(), 0
	for _, r := range rows {
		if c := d.codes[r]; d.seen[c] != s {
			d.seen[c] = s
			distinct++
		}
	}
	return float64(distinct - 1)
}

// sort writes rows into out in stable rank order: a counting sort,
// O(len(rows) + D).
func (d *dim) sort(rows, out []int) {
	for _, r := range rows {
		d.bins[d.rank[d.codes[r]]]++
	}
	at := 0
	for rk, n := range d.bins {
		d.bins[rk] = at
		at += n
	}
	for _, r := range rows {
		rk := d.rank[d.codes[r]]
		out[d.bins[rk]] = r
		d.bins[rk]++
	}
	clear(d.bins)
}

// partitioner holds one Mondrian run's coded view of the table and the
// scratch its cuts reuse.
type partitioner struct {
	relaxed bool
	dims    []*dim
	spans   []float64 // whole-table widths, the normalizers
	rows    []int     // every row; cuts reorder it in place
	ctx     context.Context
	err     error
	regions [][]int

	sorted []int // a cut's rows in rank order
	bounds []int // strict-mode boundaries of a sorted region
	order  []int // dimensions by decreasing normalized width
	widths []float64

	cfg  algorithm.Config
	rule *algorithm.ClassRule
	// sens holds the sensitive codes; nil when only k is checked.
	sens []uint32
	// seen[c] is the stamp of the last tally that met sensitive code c,
	// at[c] its entry there; entries, counts is that tally's histogram.
	seen, at        []uint32
	stamp           uint32
	entries, counts []uint32
	cuts, attempts  int64
}

// newPartitioner ranks every quasi-identifier and, when a diversity or
// closeness bound is set, prepares the sensitive-code tallies.
func (m *Mondrian) newPartitioner(t *dataset.Table, cfg algorithm.Config) (*partitioner, error) {
	qi := t.Schema.QuasiIdentifiers()
	p := &partitioner{
		relaxed: m.Relaxed,
		spans:   make([]float64, len(qi)),
		sorted:  make([]int, t.Len()),
		order:   make([]int, len(qi)),
		widths:  make([]float64, len(qi)),
		cfg:     cfg,
		rows:    make([]int, t.Len()),
	}
	for r := range p.rows {
		p.rows[r] = r
	}
	for i, j := range qi {
		d, err := newDim(t.ColumnVector(j), t.Schema.Attrs[j])
		if err != nil {
			return nil, err
		}
		p.dims = append(p.dims, d)
		if p.spans[i] = d.width(p.rows); p.spans[i] == 0 {
			p.spans[i] = 1
		}
	}
	var sup *privacy.Support
	if cfg.HasDiversityConstraints() {
		sens := t.ColumnVector(t.Schema.SensitiveIndex())
		p.sens = sens.Codes()
		p.seen, p.at = make([]uint32, sens.Card()), make([]uint32, sens.Card())
		if cfg.MaxTCloseness > 0 {
			sup = privacy.NewSupport(sens, false)
		}
	}
	p.rule = cfg.ClassRule(sup)
	return p, nil
}

// run partitions the whole table and returns the final regions in
// depth-first, left-first order, as windows of p.rows.
func (p *partitioner) run(ctx context.Context) ([][]int, error) {
	p.ctx = ctx
	p.partition(p.rows)
	return p.regions, p.err
}

// partition cuts rows along the widest dimension that admits an
// allowable cut, recursing on both sides, or emits rows as a region.
func (p *partitioner) partition(rows []int) {
	if p.err != nil {
		return
	}
	if err := p.ctx.Err(); err != nil {
		p.err = err
		return
	}
	if len(rows) >= 2*p.cfg.K {
		for _, d := range p.dimensionOrder(rows) {
			if cut, ok := p.split(p.dims[d], rows); ok {
				p.cuts++
				p.partition(rows[:cut])
				p.partition(rows[cut:])
				return
			}
		}
	}
	p.regions = append(p.regions, rows)
}

// dimensionOrder ranks the dimensions by decreasing normalized width
// within the region, ties in dimension order. The result is scratch. The
// comparison is "greater than" rather than cmp.Compare so that a NaN
// width (Inf/Inf, when a numeric range overflows) ties with everything.
func (p *partitioner) dimensionOrder(rows []int) []int {
	for i, d := range p.dims {
		p.order[i] = i
		p.widths[i] = d.width(rows) / p.spans[i]
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		switch wa, wb := p.widths[a], p.widths[b]; {
		case wa > wb:
			return -1
		case wb > wa:
			return 1
		}
		return 0
	})
	return p.order
}

// split looks for an allowable cut of rows along d: a median cut in
// relaxed mode; in strict mode the boundary between distinct values
// nearest the median that leaves both sides valid. On success it reorders
// rows by rank so the cut is rows[:cut] | rows[cut:].
func (p *partitioner) split(d *dim, rows []int) (cut int, ok bool) {
	n := len(rows)
	s := p.sorted[:n]
	d.sort(rows, s)
	mid := n / 2
	if p.relaxed {
		ok = p.allowable(s, mid)
		cut = mid
	} else {
		// Boundaries are where the code changes, not the rank: -0 and
		// +0 share a rank but are distinct values.
		b := p.bounds[:0]
		for i := 1; i < n; i++ {
			if d.codes[s[i]] != d.codes[s[i-1]] {
				b = append(b, i)
			}
		}
		p.bounds = b
		// Visit the boundaries nearest the median first, the lower of
		// two equally near ones first, within [k, n-k].
		hi, _ := slices.BinarySearch(b, mid)
		lo := hi - 1
		for !ok {
			left := lo >= 0 && b[lo] >= p.cfg.K
			right := hi < len(b) && b[hi] <= n-p.cfg.K
			switch {
			case left && (!right || mid-b[lo] <= b[hi]-mid):
				cut = b[lo]
				lo--
			case right:
				cut = b[hi]
				hi++
			default:
				return 0, false
			}
			ok = p.allowable(s, cut)
		}
	}
	if ok {
		copy(rows, s)
	}
	return cut, ok
}

// allowable reports whether both sides of the cut are valid regions.
func (p *partitioner) allowable(s []int, cut int) bool {
	p.attempts++
	return p.valid(s[:cut]) && p.valid(s[cut:])
}

// valid reports whether a candidate region meets the configuration's
// class rule: at least k rows and every diversity and closeness bound on
// its sensitive histogram.
func (p *partitioner) valid(rows []int) bool {
	var sens, hist []uint32
	if p.sens != nil && len(rows) >= p.cfg.K {
		sens, hist = p.tally(rows)
	}
	return !p.rule.Violates(len(rows), sens, hist)
}

// tally returns the sensitive histogram of rows, in scratch.
func (p *partitioner) tally(rows []int) (sens, hist []uint32) {
	if p.stamp++; p.stamp == 0 {
		clear(p.seen)
		p.stamp = 1
	}
	sens, hist = p.entries[:0], p.counts[:0]
	for _, r := range rows {
		c := p.sens[r]
		if p.seen[c] != p.stamp {
			p.seen[c], p.at[c] = p.stamp, uint32(len(sens))
			sens, hist = append(sens, c), append(hist, 0)
		}
		hist[p.at[c]]++
	}
	p.entries, p.counts = sens, hist
	return sens, hist
}

// generalize returns a final region's generalized value: the shared value
// of a uniform region, else the numeric hull, the taxonomy LCA (tax may be
// nil), the common prefix of fixed-length codes, or suppression. The
// region's distinct codes are visited in first-appearance row order, so
// every choice matches reading the rows one by one.
func (d *dim) generalize(rows []int, tax *hierarchy.Taxonomy) (dataset.Value, error) {
	s := d.nextStamp()
	distinct := d.distinct[:0]
	for _, r := range rows {
		if c := d.codes[r]; d.seen[c] != s {
			d.seen[c] = s
			distinct = append(distinct, c)
		}
	}
	d.distinct = distinct
	dict := d.dict
	first := dict[distinct[0]]
	// Value.Equal is ==, so -0 equals +0 and a NaN-bearing value equals
	// nothing, itself included.
	uniform := true
	if len(rows) > 1 {
		for _, c := range distinct {
			if !dict[c].Equal(first) {
				uniform = false
				break
			}
		}
	}
	if uniform {
		return first, nil
	}
	if d.numeric {
		lo, hi := 0.0, 0.0
		for i, c := range distinct {
			v := dict[c]
			if v.Kind() != dataset.Num {
				return dataset.Value{}, fmt.Errorf("non-ground numeric cell in column %q", d.name)
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
	if tax != nil {
		grounds := make([]string, len(distinct))
		for i, c := range distinct {
			v := dict[c]
			if v.Kind() != dataset.Str {
				return dataset.Value{}, fmt.Errorf("non-ground categorical cell in column %q", d.name)
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
	return d.commonPrefix(distinct), nil
}

// commonPrefix generalizes equal-length string codes to their shared
// prefix, and anything else to suppression.
func (d *dim) commonPrefix(distinct []uint32) dataset.Value {
	dict := d.dict
	first := dict[distinct[0]]
	if first.Kind() != dataset.Str {
		return dataset.StarVal()
	}
	base := first.Text()
	n := len(base)
	common := n
	for _, c := range distinct[1:] {
		v := dict[c]
		if v.Kind() != dataset.Str || len(v.Text()) != n {
			return dataset.StarVal()
		}
		s := v.Text()
		i := 0
		for i < common && s[i] == base[i] {
			i++
		}
		if common = i; common == 0 {
			return dataset.StarVal()
		}
	}
	if common == n {
		return first
	}
	return dataset.PrefixVal(base[:common], n-common)
}
