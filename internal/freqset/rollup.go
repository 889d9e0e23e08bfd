package freqset

import (
	"fmt"
	"sync"
	"sync/atomic"

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

	// hubs lists the hubs rolled up inside another node's Get since the
	// last Settle; their reads may still be unclaimed.
	mu   sync.Mutex
	hubs []*entry
}

// entry is one node's frequency set; done closes once fs or err is set,
// so concurrent callers wait for the one roll-up instead of repeating it.
type entry struct {
	done chan struct{}
	fs   *Set
	err  error
	// charge holds the rows and entries read to build a hub until its first
	// Get or Settle claims them.
	charge atomic.Int64
}

func newEntry() *entry { return &entry{done: make(chan struct{})} }

// ready reports whether the entry holds a finished set.
func (en *entry) ready() bool {
	select {
	case <-en.done:
		return en.err == nil
	default:
		return false
	}
}

// Get returns node's frequency set under the keying — with sens, each
// class carries its sensitive histogram. The first caller for a node rolls
// it up; concurrent callers wait for that roll-up. scanned is the number
// of rows and entries read to build the set, reported once, to the node's
// first Get: the source's size (Set.Len), plus the N rows when this call
// built the base. A hub rolled up inside another node's Get is an ordinary
// entry, and its read goes to its own first Get, unless Settle claimed it
// first.
func (s *Store) Get(node lattice.Node, sens bool) (fs *Set, scanned int, err error) {
	if err := s.Prepare(); err != nil {
		return nil, 0, err
	}
	if len(node) != len(s.attrs) {
		return nil, 0, fmt.Errorf("freqset: node %v has %d levels for %d quasi-identifiers", node, len(node), len(s.attrs))
	}
	for li, l := range node {
		if l < 0 || l >= len(s.attrs[li].Levels) {
			return nil, 0, fmt.Errorf("freqset: node %v out of range", node)
		}
	}
	ky := &s.keyings[0]
	if sens {
		ky = &s.keyings[1]
	}
	en, found := ky.sets.GetOrPut(node.Key(), newEntry)
	if found {
		<-en.done
		return en.fs, int(en.charge.Swap(0)), en.err
	}
	defer close(en.done)
	en.fs, scanned, en.err = s.build(ky, node, sens)
	return en.fs, scanned, en.err
}

// Settle claims the reads of the hubs whose first Get has not come yet,
// and returns how many hubs it claimed and the rows and entries they read.
// A caller that adds up Get's scanned and Settle's counts every read
// exactly once, including that of a hub no caller ever asks for.
func (s *Store) Settle() (hubs, scanned int) {
	for i := range s.keyings {
		ky := &s.keyings[i]
		ky.mu.Lock()
		pending := ky.hubs
		ky.hubs = nil
		ky.mu.Unlock()
		for _, en := range pending {
			if c := en.charge.Swap(0); c > 0 {
				hubs++
				scanned += int(c)
			}
		}
	}
	return hubs, scanned
}

// build rolls node up and returns its set and the rows and entries read.
// When no cached set smaller than the base can source the node, it rolls
// the node's hub up first and sources from that.
func (s *Store) build(ky *keying, node lattice.Node, sens bool) (*Set, int, error) {
	read := 0
	ky.baseOnce.Do(func() {
		read = s.t.Len()
		ky.base, ky.baseErr = s.buildBase(sens)
	})
	if ky.baseErr != nil {
		return nil, 0, ky.baseErr
	}
	src := s.source(ky, node)
	if src == ky.base {
		if h := s.hub(node); h != nil {
			hub, err := s.rollHub(ky, h, sens)
			if err != nil {
				return nil, read, err
			}
			src = hub
		}
	}
	fs, err := s.rollUp(src, node)
	return fs, read + src.Len(), err
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

// rollHub returns hub h's set, rolling it up unless a caller already has.
// The hub is an ordinary cache entry: it is rolled up once, and its read
// is charged to it, for its first Get or Settle to claim.
func (s *Store) rollHub(ky *keying, h lattice.Node, sens bool) (*Set, error) {
	en, found := ky.sets.GetOrPut(h.Key(), newEntry)
	if found {
		<-en.done
		return en.fs, en.err
	}
	var read int
	en.fs, read, en.err = s.build(ky, h, sens)
	en.charge.Store(int64(read))
	ky.mu.Lock()
	ky.hubs = append(ky.hubs, en)
	ky.mu.Unlock()
	close(en.done)
	return en.fs, en.err
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

// source picks the smallest finished set of the keying that node x can
// roll up from; the base when none qualifies.
func (s *Store) source(ky *keying, x lattice.Node) *Set {
	best := ky.base
	ky.sets.Each(func(en *entry) {
		if en.ready() && en.fs.Len() < best.Len() && s.canSource(en.fs, x) {
			best = en.fs
		}
	})
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
