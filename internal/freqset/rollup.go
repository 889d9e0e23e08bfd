package freqset

import (
	"fmt"
	"sync"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/lattice"
	"microdata/internal/lru"
)

// Set is a frequency set: distinct tuples of per-attribute codes — the
// node's quasi-identifier classes — each with the number of rows it stands
// for. Under the sensitive keying each class also carries its sensitive
// histogram (the embedded eqclass.Histograms, whose counts sum to
// Count[c]); under the plain keying the histograms are empty. Class and
// histogram order is first appearance in the source and carries no
// meaning. All fields are read-only shared state.
type Set struct {
	// Levels[li] is the level attribute li's codes are at (the ground
	// codes for the base, when they differ from level 0's fragments).
	Levels []int
	// Codes[li][c] is class c's code of attribute li; Count[c] its rows.
	Codes [][]uint32
	Count []uint32
	eqclass.Histograms
}

// Len returns the set's size: its (class, sensitive value) entries under
// the sensitive keying, its classes otherwise. The source rule and the
// scanned counts read it.
func (fs *Set) Len() int {
	if fs.Off != nil {
		return len(fs.Sens)
	}
	return len(fs.Count)
}

// keying is the base and the node cache of one sensitive keying.
type keying struct {
	baseOnce sync.Once
	base     *Set
	baseErr  error
	sets     *lru.Cache[*entry]
}

// entry is one node's frequency set; done closes once fs or err is set,
// so concurrent callers wait for the one roll-up instead of repeating it.
// epoch is the store's epoch when the roll-up finished.
type entry struct {
	done  chan struct{}
	fs    *Set
	err   error
	epoch int64
}

func newEntry() *entry { return &entry{done: make(chan struct{})} }

// before reports whether the entry holds a set finished before epoch.
func (en *entry) before(epoch int64) bool {
	select {
	case <-en.done:
		return en.err == nil && en.epoch < epoch
	default:
		return false
	}
}

// Fence starts a new epoch: the sets finished so far become roll-up
// sources for the Gets that begin after it.
func (s *Store) Fence() { s.epoch.Add(1) }

// Work is what one Get rolled up: Sets counts the sets it built (its
// node's, and its hub's when it built that too), Read every row and entry
// they read (the N rows when it built the base, then each source's
// Set.Len).
type Work struct{ Sets, Read int }

// Get returns node's frequency set under the keying — with sens, each
// class carries its sensitive histogram — and the work the call did. The
// first caller for a node rolls it up; concurrent callers wait for that
// roll-up and report no work. A roll-up sources from the sets finished
// before the latest Fence, the node's hub, and from: sets of the same
// keying the caller holds, such as the node's predecessors'. So what it
// reads depends on the requests, the fences and from, not on which
// concurrent roll-ups happen to have finished.
func (s *Store) Get(node lattice.Node, sens bool, from ...*Set) (*Set, Work, error) {
	if err := s.Prepare(); err != nil {
		return nil, Work{}, err
	}
	if len(node) != len(s.attrs) {
		return nil, Work{}, fmt.Errorf("freqset: node %v has %d levels for %d quasi-identifiers", node, len(node), len(s.attrs))
	}
	for li, l := range node {
		if l < 0 || l >= len(s.attrs[li].Levels) {
			return nil, Work{}, fmt.Errorf("freqset: node %v out of range", node)
		}
	}
	ky := &s.keyings[0]
	if sens {
		ky = &s.keyings[1]
	}
	return s.get(ky, node, sens, s.epoch.Load(), from)
}

// get returns node's set, rolling it up, and its hub first when no set
// finished before epoch or in from is smaller than the base and can
// source it.
func (s *Store) get(ky *keying, node lattice.Node, sens bool, epoch int64, from []*Set) (*Set, Work, error) {
	en, found := ky.sets.GetOrPut(node.Key(), newEntry)
	if found {
		<-en.done
		return en.fs, Work{}, en.err
	}
	defer close(en.done)
	var w Work
	ky.baseOnce.Do(func() {
		w.Read = s.t.Len()
		ky.base, ky.baseErr = s.buildBase(sens)
	})
	if en.err = ky.baseErr; en.err != nil {
		return nil, Work{}, en.err
	}
	src := s.source(ky, node, epoch, from)
	if src == ky.base {
		if h := s.hub(node); h != nil {
			var hw Work
			if src, hw, en.err = s.get(ky, h, sens, epoch, nil); en.err != nil {
				return nil, Work{}, en.err
			}
			w.Sets, w.Read = hw.Sets, w.Read+hw.Read
		}
	}
	en.fs, en.err = s.rollUp(src, node)
	en.epoch = s.epoch.Load()
	return en.fs, Work{Sets: w.Sets + 1, Read: w.Read + src.Len()}, en.err
}

// hub returns node x's hub min(x, 1): one step up on every attribute x
// generalizes, so every node it lies below shares one small source where
// each would otherwise read the base. It returns nil when the hub is x
// itself (which covers the bottom node) or when some attribute's ladder
// does not nest from level 1 into x's level.
func (s *Store) hub(x lattice.Node) lattice.Node {
	var h lattice.Node
	for li, l := range x {
		if l > 1 {
			if s.attrs[li].Levels[1].up[l] == nil {
				return nil
			}
			if h == nil {
				h = x.Clone()
			}
			h[li] = 1
		}
	}
	return h
}

// Len returns the number of frequency sets resident across both keyings.
func (s *Store) Len() int { return s.keyings[0].sets.Len() + s.keyings[1].sets.Len() }

// buildBase groups the rows by their ground codes, and with sens builds
// each class's sensitive histogram — the only row scan of a keying.
func (s *Store) buildBase(sens bool) (*Set, error) {
	cols := make([][]uint32, len(s.attrs))
	cards := make([]int, len(s.attrs))
	levels := make([]int, len(s.attrs))
	for li := range s.attrs {
		at := &s.attrs[li]
		cols[li] = at.Ground
		cards[li] = len(at.Levels[0].Frag)
		// Where level 0 keeps every ground value apart (the usual exact
		// rung), the ground codes ARE the level-0 fragment ids.
		for d, f := range at.Levels[0].Frag {
			if f != uint32(d) {
				levels[li] = groundLevel
				break
			}
		}
	}
	var col *dataset.Column
	if sens {
		si, err := s.Sensitive()
		if err != nil {
			return nil, err
		}
		col = si.Col
	}
	return collapse(cols, cards, nil, levels, nil, col)
}

// canSource reports whether frequency set fs determines node x's
// frequency set: in every attribute its codes map onto x's fragments.
func (s *Store) canSource(fs *Set, x lattice.Node) bool {
	for li, from := range fs.Levels {
		if s.attrs[li].toLevel(from, x[li]) == nil {
			return false
		}
	}
	return true
}

// source picks the smallest set of the keying, finished before epoch or
// in from, that node x can roll up from; the base when none qualifies.
func (s *Store) source(ky *keying, x lattice.Node, epoch int64, from []*Set) *Set {
	best := ky.base
	pick := func(fs *Set) {
		if fs.Len() < best.Len() && s.canSource(fs, x) {
			best = fs
		}
	}
	ky.sets.Each(func(en *entry) {
		if en.before(epoch) {
			pick(en.fs)
		}
	})
	for _, fs := range from {
		pick(fs)
	}
	return best
}

// rollUp derives node's frequency set from src's: each class's codes are
// mapped to the node's fragments, equal classes merge, summing counts, and
// their sensitive histograms merge. Attributes already at the node's level
// keep their codes; a source at the node itself (the base, for the bottom
// node) is the answer.
func (s *Store) rollUp(src *Set, node lattice.Node) (*Set, error) {
	cols := make([][]uint32, len(s.attrs))
	cards := make([]int, len(s.attrs))
	moved := false
	for li := range s.attrs {
		cards[li] = s.attrs[li].Levels[node[li]].NFrag
		if src.Levels[li] == node[li] {
			cols[li] = src.Codes[li]
			continue
		}
		moved = true
		m := s.attrs[li].toLevel(src.Levels[li], node[li])
		col := make([]uint32, len(src.Count))
		for c, code := range src.Codes[li] {
			col[c] = m[code]
		}
		cols[li] = col
	}
	if !moved {
		return src, nil
	}
	var col *dataset.Column
	if src.Off != nil {
		col = s.sens.Col
	}
	return collapse(cols, cards, src.Count, append([]int(nil), node...), src, col)
}

// collapse groups items (rows, or a source's classes) by their code
// columns into a frequency set at the given levels, summing count per
// class (each item counts 1 when count is nil). With the sensitive column
// col, each class also gets the merge of its items' sensitive histograms:
// src's, or with src nil (items are rows) the column's codes.
func collapse(cols [][]uint32, cards []int, count []uint32, levels []int, src *Set, col *dataset.Column) (*Set, error) {
	ids, classes, err := eqclass.GroupCodes(cols, cards)
	if err != nil {
		return nil, fmt.Errorf("freqset: %w", err)
	}
	fs := &Set{Levels: levels, Codes: make([][]uint32, len(cols)), Count: make([]uint32, classes)}
	for li := range fs.Codes {
		fs.Codes[li] = make([]uint32, classes)
	}
	for i, c := range ids {
		if fs.Count[c] == 0 {
			for li, col := range cols {
				fs.Codes[li][c] = col[i]
			}
		}
		if count == nil {
			fs.Count[c]++
		} else {
			fs.Count[c] += count[i]
		}
	}
	switch {
	case col == nil:
	case src == nil:
		fs.Histograms = eqclass.RowHistograms(ids, classes, col.Codes(), col.Card())
	default:
		fs.Histograms = src.Merge(ids, classes, col.Card())
	}
	return fs, nil
}
