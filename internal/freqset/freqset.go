// Package freqset is the frequency-set store behind the evaluation engine:
// everything about lattice nodes that depends only on one table and one
// hierarchy set, never on k, the suppression budget, the metric or the
// algorithm.
//
// A node's frequency set holds its distinct generalized quasi-identifier
// tuples, each with the number of rows it stands for. A Store owns:
//
//   - the generalization maps, precomputed once per store on first use:
//     for each quasi-identifier and level, the distinct ground values are
//     mapped to compact fragment ids such that two rows share a fragment id
//     exactly when their generalized values coincide. Alongside come each
//     level's distinct Iyengar cell losses and a nesting table recording
//     which finer level's fragments map into a coarser level's;
//   - one base frequency set per sensitive keying, built by a group-by over
//     the rows' ground dictionary codes on the keying's first roll-up. The
//     sensitive keying adds the sensitive code to the grouping key, so a
//     tuple is a (quasi-identifier tuple, sensitive value) pair; the plain
//     keying serves k-only configurations;
//   - a bounded node → frequency-set cache per keying. Each node is rolled
//     up (Incognito's roll-up property, LeFevre, DeWitt & Ramakrishnan
//     2005) once, even under concurrent callers, from the smallest cached
//     set that can be its source: a set at or below the node in every
//     attribute whose fragments nest inside the node's. The base always
//     qualifies.
//
// Tables are sealed, so a store never goes stale. Callers scope a store
// explicitly — one per generated table in the experiment runner — and hand
// it to every algorithm through algorithm.Config.Store; the engine checks
// that it was built for the configuration's table, hierarchies and
// taxonomies.
package freqset

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
	"microdata/internal/lru"
	"microdata/internal/privacy"
	"microdata/internal/utility"
)

// DefaultCapacity bounds the frequency sets a store keeps resident per
// keying unless New is given another bound. Full-domain lattices in the
// experiments hold hundreds of nodes.
const DefaultCapacity = 4096

// Level is one rung of one attribute's precomputed generalization map.
// Its exported fields are read-only shared state.
type Level struct {
	// Frag maps a distinct-ground-value id to its fragment id at this
	// level; rows share a fragment id iff their generalized values are
	// identical (by dataset.Value.Key).
	Frag []uint32
	// NFrag is the number of distinct fragment ids (the distinct count of
	// the generalized column).
	NFrag int
	// Star is the fragment id of the fully suppressed value, or -1 when no
	// ground value generalizes to "*" at this level.
	Star int32
	// LossIdx maps a fragment id to its Iyengar cell loss in LossVals, the
	// level's distinct losses; both are nil when Store.LossErr is not.
	LossIdx  []uint32
	LossVals []float64

	// up[lx] maps this level's fragment ids to level lx's when every
	// fragment here lies inside one fragment at lx (lx >= this level);
	// nil when the two levels do not nest.
	up [][]uint32
}

// Attr is the full generalization map of one quasi-identifier.
type Attr struct {
	// Ground maps a row index to its distinct-ground-value id: the
	// column's dictionary codes, shared read-only.
	Ground []uint32
	Levels []Level
}

// groundLevel marks a frequency set whose codes are an attribute's ground
// dictionary codes — the base's — rather than fragment ids of a level.
const groundLevel = -1

// toLevel returns the map from codes at level from (groundLevel for the
// base) to fragment ids at level to, or nil when from's codes do not
// determine to's fragments.
func (at *Attr) toLevel(from, to int) []uint32 {
	if from == groundLevel {
		return at.Levels[to].Frag
	}
	if from > to {
		return nil
	}
	return at.Levels[from].up[to]
}

// Sensitive is what the count-based diversity checks need of the
// sensitive attribute.
type Sensitive struct {
	// Codes maps a row index to its sensitive dictionary code; Card is the
	// dictionary size.
	Codes []uint32
	Card  int
	// Pos maps a sensitive code to its index in the canonical value order
	// of privacy.Support; Global is the column's distribution over it.
	Pos    []int
	Global []float64
}

// Store holds the frequency sets of one table under one hierarchy set. It
// is safe for concurrent use.
type Store struct {
	t   *dataset.Table
	hs  hierarchy.Set
	tax map[string]*hierarchy.Taxonomy

	prepOnce sync.Once
	prepErr  error
	attrs    []Attr
	lossErr  error

	sensOnce sync.Once
	sens     *Sensitive
	sensErr  error

	// keyings[0] groups on the quasi-identifiers alone, keyings[1] adds
	// the sensitive code.
	keyings [2]keying
}

// New returns an empty store for the table under the hierarchies, with
// taxonomies pricing Set-generalized cells. capacity bounds the resident
// frequency sets per keying; below 1 it is DefaultCapacity. Nothing is
// computed until the first caller needs it.
func New(t *dataset.Table, hs hierarchy.Set, tax map[string]*hierarchy.Taxonomy, capacity int) *Store {
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	s := &Store{t: t, hs: hs, tax: tax}
	for i := range s.keyings {
		s.keyings[i].sets = lru.New[*entry](capacity)
	}
	return s
}

// Check reports an error unless the store was built for exactly this
// table, these hierarchy values and these taxonomy pointers. Sets from
// another table or hierarchy would give silently wrong verdicts.
func (s *Store) Check(t *dataset.Table, hs hierarchy.Set, tax map[string]*hierarchy.Taxonomy) error {
	switch {
	case t != s.t:
		return errors.New("freqset: store was built for another table")
	case !sameMap(hs, s.hs):
		return errors.New("freqset: store was built for another hierarchy set")
	case !sameMap(tax, s.tax):
		return errors.New("freqset: store was built for another taxonomy map")
	}
	return nil
}

// sameMap reports whether a and b hold identical values under the same
// keys. Hierarchies and taxonomies are pointers, so == is identity.
func sameMap[V comparable](a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// Prepare precomputes the generalization maps, once per store; later
// calls return the first call's error.
func (s *Store) Prepare() error {
	s.prepOnce.Do(func() { s.prepErr = s.precompute() })
	return s.prepErr
}

// Attrs returns the generalization maps in quasi-identifier order. It is
// valid after Prepare succeeds; the result is read-only shared state.
func (s *Store) Attrs() []Attr { return s.attrs }

// LossErr reports why cell losses could not be priced (e.g. a Set
// hierarchy without a taxonomy), or nil. Callers defer it until a cost is
// requested, since constraint checking never needs losses. It is valid
// after Prepare succeeds.
func (s *Store) LossErr() error { return s.lossErr }

// precompute builds the per-attribute, per-level fragment tables, their
// nesting maps and distinct losses. The distinct-ground-value pass IS the
// table's dictionary encoding: each quasi-identifier's codes and
// dictionary come straight from the table's columns.
func (s *Store) precompute() error {
	qi := s.t.Schema.QuasiIdentifiers()
	attrs := make([]Attr, len(qi))
	for li, j := range qi {
		attr := s.t.Schema.Attrs[j]
		h, ok := s.hs[attr.Name]
		if !ok {
			return fmt.Errorf("freqset: no hierarchy for quasi-identifier %q", attr.Name)
		}
		col := s.t.ColumnVector(j)
		distinct := col.Dict()
		// The loss domain mirrors utility.GeneralLossMetric: numeric
		// attributes take their domain from the ORIGINAL table.
		var domLo, domHi float64
		if attr.Kind == dataset.Numeric {
			if lo, hi, ok := s.t.NumericRange(j); ok {
				domLo, domHi = lo, hi
			}
		}
		tax := s.tax[attr.Name]
		levels := make([]Level, h.MaxLevel()+1)
		for l := range levels {
			fragIndex := make(map[string]uint32)
			lv := Level{Frag: make([]uint32, len(distinct)), Star: -1}
			var fragLoss []float64 // fragment id -> cell loss
			for d, v := range distinct {
				g, err := h.Generalize(v, l)
				if err != nil {
					return fmt.Errorf("freqset: attribute %q level %d: %w", attr.Name, l, err)
				}
				key := g.Key()
				id, seen := fragIndex[key]
				if !seen {
					id = uint32(len(fragIndex))
					fragIndex[key] = id
					if g.IsSuppressed() {
						lv.Star = int32(id)
					}
					if s.lossErr == nil {
						// A cell's loss depends on its generalized value
						// alone, so each fragment is priced once.
						loss, err := utility.CellLoss(g, attr, domLo, domHi, tax)
						if err != nil {
							s.lossErr = fmt.Errorf("freqset: %w", err)
						}
						fragLoss = append(fragLoss, loss)
					}
				}
				lv.Frag[d] = id
			}
			lv.NFrag = len(fragIndex)
			if s.lossErr == nil {
				lv.LossIdx, lv.LossVals = distinctLosses(fragLoss)
			}
			levels[l] = lv
		}
		for l := range levels {
			levels[l].up = make([][]uint32, len(levels))
			for lx := l; lx < len(levels); lx++ {
				levels[l].up[lx] = nestMap(&levels[l], &levels[lx])
			}
		}
		attrs[li] = Attr{Ground: col.Codes(), Levels: levels}
	}
	s.attrs = attrs
	return nil
}

// nestMap returns the map from fine's fragment ids to coarse's when every
// fine fragment lies inside a single coarse fragment, else nil. Interval
// ladders with non-nested widths (3 then 5) are legal hierarchies, so
// nesting is checked on the ground values, never assumed.
func nestMap(fine, coarse *Level) []uint32 {
	const unset = math.MaxUint32
	m := make([]uint32, fine.NFrag)
	for i := range m {
		m[i] = unset
	}
	for d, f := range fine.Frag {
		c := coarse.Frag[d]
		switch m[f] {
		case unset:
			m[f] = c
		case c:
		default:
			return nil
		}
	}
	return m
}

// distinctLosses indexes a level's per-fragment losses by distinct value,
// so pricing a node sums a handful of count·loss terms per attribute.
func distinctLosses(fragLoss []float64) (idx []uint32, vals []float64) {
	idx = make([]uint32, len(fragLoss))
	seen := make(map[float64]uint32)
	for f, loss := range fragLoss {
		i, ok := seen[loss]
		if !ok {
			i = uint32(len(vals))
			seen[loss] = i
			vals = append(vals, loss)
		}
		idx[f] = i
	}
	return idx, vals
}

// Sensitive describes the table's sensitive attribute, built once per
// store.
func (s *Store) Sensitive() (*Sensitive, error) {
	s.sensOnce.Do(func() {
		si := s.t.Schema.SensitiveIndex()
		if si < 0 {
			s.sensErr = errors.New("freqset: table has no sensitive attribute")
			return
		}
		col := s.t.ColumnVector(si)
		keys, global := privacy.Support(s.t.Column(si), false)
		at := make(map[string]int, len(keys))
		for i, k := range keys {
			at[k] = i
		}
		pos := make([]int, col.Card())
		for c, k := range col.DictKeys() {
			pos[c] = at[k]
		}
		s.sens = &Sensitive{Codes: col.Codes(), Card: col.Card(), Pos: pos, Global: global}
	})
	return s.sens, s.sensErr
}
