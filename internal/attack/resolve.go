package attack

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// resolution is a table (the original, a sample or a population) resolved
// against the region index on dictionary codes. Each quasi-identifier's
// dictionary entries are matched through the index once; entries whose
// region sets coincide share one match class (every age inside one
// released interval, say). Rows are then grouped by their tuple of match
// classes, and a group's region set is the AND of its classes' sets, so
// the per-group work never touches a Value.
type resolution struct {
	// groupOf maps every row to its group, numbered by first appearance.
	groupOf []uint32
	// counts holds the rows of each group.
	counts []int
	// cells holds each group's match class per attribute, q per group.
	cells []uint32
	// classes[vi][c] is the region set of match class c of attribute vi.
	classes [][]bitset
}

// checkQI returns the quasi-identifier columns of t after checking that
// they are the release's: the same count, names and kinds, in the same QI
// order. role names t in the error.
func (a *Adversary) checkQI(t *dataset.Table, role string) ([]int, error) {
	qi := t.Schema.QuasiIdentifiers()
	if len(qi) != len(a.qi) {
		return nil, fmt.Errorf("attack: %s has %d quasi-identifiers, release has %d", role, len(qi), len(a.qi))
	}
	for vi, j := range qi {
		got, want := t.Schema.Attrs[j], a.anon.Schema.Attrs[a.qi[vi]]
		if got.Name != want.Name || got.Kind != want.Kind {
			return nil, fmt.Errorf("attack: %s quasi-identifier %d is %s %q, release has %s %q",
				role, vi+1, got.Kind, got.Name, want.Kind, want.Name)
		}
	}
	return qi, nil
}

// resolve groups t's rows by match-class tuple over the QI columns qi
// (aligned with the index's attributes). Every dictionary entry resolved
// through the index counts as a cache miss.
func (a *Adversary) resolve(ix *regionIndex, t *dataset.Table, qi []int) (*resolution, error) {
	q := len(qi)
	res := &resolution{classes: make([][]bitset, q)}
	cols := make([][]uint32, q)
	cards := make([]int, q)
	scratch := newBitset(ix.n)
	entries := 0
	for vi, j := range qi {
		col := t.ColumnVector(j)
		classOf := make([]uint32, col.Card())
		var classes sliceSet[bitset, uint64]
		for e, v := range col.Dict() {
			scratch.zero()
			a.matchAttrInto(&ix.attrs[vi], v, scratch)
			c, added := classes.intern(scratch)
			if added {
				scratch = newBitset(ix.n)
			}
			classOf[e] = uint32(c)
		}
		res.classes[vi] = classes.items
		entries += len(classOf)
		ids := make([]uint32, t.Len())
		for i, code := range col.Codes() {
			ids[i] = classOf[code]
		}
		cols[vi], cards[vi] = ids, len(res.classes[vi])
	}
	a.ins.cacheMisses.Add(int64(entries))
	groupOf, groups, err := eqclass.GroupCodes(cols, cards)
	if err != nil {
		return nil, err
	}
	res.groupOf = groupOf
	res.counts = make([]int, groups)
	res.cells = make([]uint32, groups*q)
	next := uint32(0)
	for i, g := range groupOf {
		if g == next {
			for vi := range cols {
				res.cells[int(g)*q+vi] = cols[vi][i]
			}
			next++
		}
		res.counts[g]++
	}
	return res, nil
}

// groups returns the number of distinct match-class tuples.
func (r *resolution) groups() int { return len(r.counts) }

// eachRegion calls f with every region group g matches, in ascending
// order: the regions in all of the group's per-attribute class sets.
func (r *resolution) eachRegion(g int, f func(region int)) {
	q := len(r.classes)
	cells := r.cells[g*q : (g+1)*q]
	for w, x := range r.classes[0][cells[0]] {
		for vi := 1; vi < q && x != 0; vi++ {
			x &= r.classes[vi][cells[vi]][w]
		}
		for ; x != 0; x &= x - 1 {
			f(w<<6 + bits.TrailingZeros64(x))
		}
	}
}

// regionLists resolves every group of r to its ascending list of matched
// regions on the victim-level fan-out. Each group serves its q attribute
// cells from the per-entry memo, which the counters record as hits, and
// counts its matched regions as probed and the rest as pruned.
func (a *Adversary) regionLists(ctx context.Context, ix *regionIndex, r *resolution) ([][]int32, error) {
	lists := make([][]int32, r.groups())
	if err := forEachParallel(ctx, r.groups(), func(g int) error {
		r.eachRegion(g, func(reg int) { lists[g] = append(lists[g], int32(reg)) })
		return nil
	}); err != nil {
		return nil, err
	}
	probed := 0
	for _, l := range lists {
		probed += len(l)
	}
	groups := int64(r.groups())
	a.ins.cacheHits.Add(groups * int64(len(r.classes)))
	a.ins.regionsProbed.Add(int64(probed))
	a.ins.candidatesPruned.Add(groups*int64(ix.n) - int64(probed))
	return lists, nil
}

// sliceSet interns slices by content: equal slices share one id, so work
// that depends only on a region set runs once per distinct set. It holds
// the match classes of a column (region bitsets) and the distinct region
// lists of a table's groups.
type sliceSet[S ~[]E, E int32 | uint64] struct {
	byHash map[uint64][]int32
	items  []S
}

// intern returns the id of x, and whether this call added it. An added x
// is kept, not copied, so the caller must not modify it afterwards.
func (s *sliceSet[S, E]) intern(x S) (id int32, added bool) {
	h := uint64(14695981039346656037)
	for _, v := range x {
		// FNV-1a with an extra shift, so a word's high bits reach the
		// low bits of the hash.
		h = (h ^ uint64(v)) * 1099511628211
		h ^= h >> 29
	}
	for _, id := range s.byHash[h] {
		if slices.Equal(s.items[id], x) {
			return id, false
		}
	}
	if s.byHash == nil {
		s.byHash = make(map[uint64][]int32)
	}
	id = int32(len(s.items))
	s.items = append(s.items, x)
	s.byHash[h] = append(s.byHash[h], id)
	return id, true
}
