package freqset

import (
	"fmt"
	"sync"

	"microdata/internal/eqclass"
	"microdata/internal/lattice"
	"microdata/internal/lru"
)

// Set is a frequency set: distinct tuples of per-attribute codes, each
// with the number of rows it stands for. With the sensitive keying one
// quasi-identifier class spans several tuples, one per sensitive value it
// holds. Tuple order is first appearance in the source and carries no
// meaning. All fields are read-only shared state.
type Set struct {
	// Levels[li] is the level attribute li's codes are at (the ground
	// codes for the base, when they differ from level 0's fragments).
	Levels []int
	// Codes[li][j] is tuple j's code of attribute li.
	Codes [][]uint32
	// Sens[j] is tuple j's sensitive code; nil for the plain keying.
	Sens  []uint32
	Count []uint32
}

// Len returns the number of tuples.
func (fs *Set) Len() int { return len(fs.Count) }

// keying is the base and the node cache of one sensitive keying.
type keying struct {
	baseOnce sync.Once
	base     *Set
	baseErr  error
	sets     *lru.Cache[*entry]
}

// entry is one node's frequency set; done closes once fs or err is set,
// so concurrent callers wait for the one roll-up instead of repeating it.
type entry struct {
	done chan struct{}
	fs   *Set
	err  error
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

// Get returns node's frequency set under the keying — with sens, the
// sensitive code joins the grouping key. The first caller for a node rolls
// it up; concurrent callers wait for that roll-up. scanned is the number
// of rows and tuples this call read: zero when another call built the set,
// else the source's tuples plus the N rows when this call built the base.
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
		return en.fs, 0, en.err
	}
	defer close(en.done)
	built := false
	ky.baseOnce.Do(func() {
		built = true
		ky.base, ky.baseErr = s.buildBase(sens)
	})
	if ky.baseErr != nil {
		en.err = ky.baseErr
		return nil, 0, en.err
	}
	if built {
		scanned = s.t.Len()
	}
	src := s.source(ky, node)
	scanned += src.Len()
	en.fs, en.err = s.rollUp(src, node)
	return en.fs, scanned, en.err
}

// Len returns the number of frequency sets resident across both keyings.
func (s *Store) Len() int { return s.keyings[0].sets.Len() + s.keyings[1].sets.Len() }

// buildBase groups the rows by their ground codes (and, with sens, their
// sensitive code) — the only row scan of a keying.
func (s *Store) buildBase(sens bool) (*Set, error) {
	cols := make([][]uint32, 0, len(s.attrs)+1)
	cards := make([]int, 0, len(s.attrs)+1)
	levels := make([]int, len(s.attrs))
	for li := range s.attrs {
		at := &s.attrs[li]
		cols = append(cols, at.Ground)
		cards = append(cards, len(at.Levels[0].Frag))
		// Where level 0 keeps every ground value apart (the usual exact
		// rung), the ground codes ARE the level-0 fragment ids.
		for d, f := range at.Levels[0].Frag {
			if f != uint32(d) {
				levels[li] = groundLevel
				break
			}
		}
	}
	if sens {
		si, err := s.Sensitive()
		if err != nil {
			return nil, err
		}
		cols = append(cols, si.Codes)
		cards = append(cards, si.Card)
	}
	return collapse(cols, cards, nil, levels)
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

// rollUp derives node's frequency set from src's: each tuple's codes are
// mapped to the node's fragments and equal tuples merge, summing counts.
// Attributes already at the node's level keep their codes; a source at the
// node itself (the base, for the bottom node) is the answer.
func (s *Store) rollUp(src *Set, node lattice.Node) (*Set, error) {
	q := len(s.attrs)
	d := src.Len()
	cols := make([][]uint32, q, q+1)
	cards := make([]int, q, q+1)
	moved := false
	for li := range s.attrs {
		cards[li] = s.attrs[li].Levels[node[li]].NFrag
		if src.Levels[li] == node[li] {
			cols[li] = src.Codes[li]
			continue
		}
		moved = true
		m := s.attrs[li].toLevel(src.Levels[li], node[li])
		col := make([]uint32, d)
		for j, c := range src.Codes[li] {
			col[j] = m[c]
		}
		cols[li] = col
	}
	if !moved {
		return src, nil
	}
	if src.Sens != nil {
		cols = append(cols, src.Sens)
		cards = append(cards, s.sens.Card)
	}
	return collapse(cols, cards, src.Count, append([]int(nil), node...))
}

// collapse groups items (rows, or a source's tuples) by their code columns
// into a frequency set at the given levels, summing count per group (each
// item counts 1 when count is nil). A column past the quasi-identifiers is
// the sensitive code.
func collapse(cols [][]uint32, cards []int, count []uint32, levels []int) (*Set, error) {
	ids, groups, err := eqclass.GroupCodes(cols, cards)
	if err != nil {
		return nil, fmt.Errorf("freqset: %w", err)
	}
	q := len(levels)
	withSens := len(cols) > q
	fs := &Set{Levels: levels, Codes: make([][]uint32, q), Count: make([]uint32, groups)}
	for li := range fs.Codes {
		fs.Codes[li] = make([]uint32, groups)
	}
	if withSens {
		fs.Sens = make([]uint32, groups)
	}
	for i, g := range ids {
		if fs.Count[g] == 0 {
			for li := 0; li < q; li++ {
				fs.Codes[li][g] = cols[li][i]
			}
			if withSens {
				fs.Sens[g] = cols[q][i]
			}
		}
		if count == nil {
			fs.Count[g]++
		} else {
			fs.Count[g] += count[i]
		}
	}
	return fs, nil
}
