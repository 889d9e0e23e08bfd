package attack

import (
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
)

// regionIndex groups the anonymized table into distinct quasi-identifier
// REGIONS — equivalence classes of rows with identical generalized cells —
// and builds per-attribute lookup structures over the region
// representatives. Matching a victim then costs a handful of hash/binary
// searches plus O(regions/64) bitset words per attribute, instead of the
// naive O(rows·|QI|) covers scan; the match COUNT follows from the region
// sizes without touching rows at all. Every lookup structure replicates
// Adversary.covers exactly, which the cross-validation tests pin.
type regionIndex struct {
	// sizes holds the per-region row counts; the regions are the classes
	// of the anonymized rows' partition by QI signature, ordered by first
	// appearance.
	sizes []int
	// n is the number of regions.
	n int
	// attrs holds one lookup structure per quasi-identifier, in schema
	// QI order.
	attrs []attrIndex
}

// rows returns the anonymized rows the regions regs span.
func (ix *regionIndex) rows(regs []int32) int {
	n := 0
	for _, r := range regs {
		n += ix.sizes[r]
	}
	return n
}

// cellEntry is one distinct generalized cell of one attribute together
// with the set of regions carrying it. Distinct cells of one attribute
// carry DISJOINT region sets — a region has exactly one cell per
// attribute.
type cellEntry struct {
	val  dataset.Value
	regs bitset
}

// prefixKey identifies a family of Prefix cells: the retained prefix and
// the total ground-string length it covers (len(prefix)+masked). A ground
// string s is covered by exactly the cells at keys {s[:k], len(s)}.
type prefixKey struct {
	prefix string
	length int
}

// attrIndex resolves, for one quasi-identifier, the set of regions whose
// cell covers a given victim value.
type attrIndex struct {
	attr dataset.Attribute
	tax  *hierarchy.Taxonomy

	// cells lists the distinct generalized cells — the generic fallback
	// for victim value kinds the typed lookups below do not cover (still
	// O(distinct cells), never O(rows)).
	cells []cellEntry

	// star is the region set with a fully suppressed cell; nil when none.
	star bitset
	// exact maps the Value.Key of exact (Num/Str) cells to their regions.
	exact map[string]bitset
	// prefixes maps Prefix cells by (prefix, total length); nil when the
	// attribute has no Prefix cells.
	prefixes map[prefixKey]bitset
	// setNodes maps Set cell labels to their regions; setAny collects Set
	// cells labeled "*", which CoversValue accepts for any ground value.
	setNodes map[string]bitset
	setAny   bitset

	// Interval stabbing structure: points holds the sorted distinct
	// endpoints of all Interval cells; segs the covering region set per
	// elementary segment — segs[2i+1] is the singleton [points[i]],
	// segs[2i] the open gap below points[i], segs[2m] the ray above the
	// last point. nil when the attribute has no Interval cells.
	points []float64
	segs   []bitset
}

// buildRegionIndex constructs the index for the anonymized table over its
// quasi-identifier columns.
func buildRegionIndex(anon *dataset.Table, qi []int, taxs map[string]*hierarchy.Taxonomy) (*regionIndex, error) {
	part, err := eqclass.FromColumns(anon, qi)
	if err != nil {
		return nil, err
	}
	n := part.NumClasses()
	ix := &regionIndex{sizes: part.Sizes(), n: n, attrs: make([]attrIndex, len(qi))}
	for vi, j := range qi {
		ai := &ix.attrs[vi]
		ai.attr = anon.Schema.Attrs[j]
		ai.tax = taxs[ai.attr.Name]
		byKey := make(map[string]int)
		for r := 0; r < n; r++ {
			v := anon.At(part.Classes[r][0], j)
			k := v.Key()
			ci, ok := byKey[k]
			if !ok {
				ci = len(ai.cells)
				byKey[k] = ci
				ai.cells = append(ai.cells, cellEntry{val: v, regs: newBitset(n)})
			}
			ai.cells[ci].regs.set(r)
		}
		ai.build(n)
	}
	return ix, nil
}

// build derives the typed lookup structures from the distinct cells.
func (ai *attrIndex) build(n int) {
	ai.exact = make(map[string]bitset)
	type ivCell struct {
		lo, hi float64
		regs   bitset
	}
	var ivs []ivCell
	for _, c := range ai.cells {
		switch c.val.Kind() {
		case dataset.Star:
			if ai.star == nil {
				ai.star = newBitset(n)
			}
			ai.star.or(c.regs)
		case dataset.Num, dataset.Str:
			ai.exact[c.val.Key()] = c.regs
		case dataset.Prefix:
			if ai.prefixes == nil {
				ai.prefixes = make(map[prefixKey]bitset)
			}
			ai.prefixes[prefixKey{c.val.Text(), len(c.val.Text()) + c.val.MaskedLen()}] = c.regs
		case dataset.Set:
			if ai.setNodes == nil {
				ai.setNodes = make(map[string]bitset)
			}
			ai.setNodes[c.val.Text()] = c.regs
			if c.val.Text() == "*" {
				if ai.setAny == nil {
					ai.setAny = newBitset(n)
				}
				ai.setAny.or(c.regs)
			}
		case dataset.Interval:
			lo, hi := c.val.Bounds()
			ivs = append(ivs, ivCell{lo, hi, c.regs})
		}
		// Missing cells participate only via the generic fallback.
	}
	if len(ivs) == 0 {
		return
	}
	// Elementary segments over the sorted distinct endpoints. A Num victim
	// v matches a numeric hull [lo,hi] iff lo <= v <= hi (covers attains
	// both bounds), so each interval covers the contiguous segments from
	// its lo singleton through its hi singleton. Sweep left to right,
	// adding each interval's regions at its lo singleton and clearing them
	// after its hi singleton — sound because distinct cells of one
	// attribute carry disjoint region sets.
	pts := make([]float64, 0, 2*len(ivs))
	for _, iv := range ivs {
		pts = append(pts, iv.lo, iv.hi)
	}
	sort.Float64s(pts)
	for _, p := range pts {
		if len(ai.points) == 0 || p != ai.points[len(ai.points)-1] {
			ai.points = append(ai.points, p)
		}
	}
	nseg := 2*len(ai.points) + 1
	starts := make([][]bitset, nseg)
	ends := make([][]bitset, nseg)
	for _, iv := range ivs {
		s := 2*sort.SearchFloat64s(ai.points, iv.lo) + 1
		e := 2*sort.SearchFloat64s(ai.points, iv.hi) + 1
		starts[s] = append(starts[s], iv.regs)
		ends[e] = append(ends[e], iv.regs)
	}
	run := newBitset(n)
	ai.segs = make([]bitset, nseg)
	for s := 0; s < nseg; s++ {
		for _, b := range starts[s] {
			run.or(b)
		}
		ai.segs[s] = run.clone()
		for _, b := range ends[s] {
			run.andNot(b)
		}
	}
}

// segFor returns the interval-cell region set covering the numeric value
// v, or nil when the attribute has no Interval cells.
func (ai *attrIndex) segFor(v float64) bitset {
	if ai.segs == nil {
		return nil
	}
	i := sort.SearchFloat64s(ai.points, v)
	if i < len(ai.points) && ai.points[i] == v {
		return ai.segs[2*i+1]
	}
	return ai.segs[2*i]
}

// matchAttrInto ORs into out the regions whose cell at this attribute
// covers the victim value v, replicating Adversary.covers exactly.
func (a *Adversary) matchAttrInto(ai *attrIndex, v dataset.Value, out bitset) {
	switch v.Kind() {
	case dataset.Num:
		if ai.star != nil {
			out.or(ai.star)
		}
		if f := v.Float(); f == f { // NaN equals nothing, even itself
			if b, ok := ai.exact[v.Key()]; ok {
				out.or(b)
			}
			if f == 0 {
				// ±0 are structurally equal for covers but have distinct
				// Keys; probe the other sign's key too.
				if b, ok := ai.exact[dataset.NumVal(-f).Key()]; ok {
					out.or(b)
				}
			}
			if b := ai.segFor(f); b != nil {
				out.or(b)
			}
		}
		if ai.prefixes != nil {
			ai.orPrefixes(v.String(), out)
		}
		// Set cells never cover numeric ground values.
	case dataset.Str:
		if ai.star != nil {
			out.or(ai.star)
		}
		if b, ok := ai.exact[v.Key()]; ok {
			out.or(b)
		}
		if ai.prefixes != nil {
			ai.orPrefixes(v.Text(), out)
		}
		if ai.tax != nil && ai.setNodes != nil {
			if ai.setAny != nil {
				out.or(ai.setAny)
			}
			for _, lbl := range ai.tax.CoveringLabels(v.Text()) {
				if b, ok := ai.setNodes[lbl]; ok {
					out.or(b)
				}
			}
		}
	default:
		// Ground victims are Num or Str in every workload; exotic victim
		// kinds fall back to the reference predicate over distinct cells.
		for i := range ai.cells {
			if a.covers(ai.cells[i].val, v, ai.attr) {
				out.or(ai.cells[i].regs)
			}
		}
	}
}

// orPrefixes ORs the regions of every Prefix cell covering the ground
// string s: cells keyed by a prefix of s with total length len(s).
func (ai *attrIndex) orPrefixes(s string, out bitset) {
	for k := 0; k <= len(s); k++ {
		if b, ok := ai.prefixes[prefixKey{s[:k], len(s)}]; ok {
			out.or(b)
		}
	}
}
