// Package hierarchy implements generalization hierarchies for microdata
// attributes: taxonomy trees for categorical values, anchored interval
// ladders for numeric values, character-masking ladders for code-like
// strings (zip codes), and the trivial suppression ladder.
//
// A hierarchy exposes a ladder of generalization levels. Level 0 is the
// identity (the ground value); level MaxLevel() is the coarsest form, which
// for every implementation here is the fully suppressed value "*" — matching
// the paper's assumption that suppression is a special case of
// generalization. Each level also carries an information loss in [0,1] per
// Iyengar's general loss metric, used by package utility.
package hierarchy

import (
	"fmt"

	"microdata/internal/dataset"
)

// Hierarchy generalizes ground values of one attribute to any of its levels.
type Hierarchy interface {
	// Attribute returns the attribute name this hierarchy applies to.
	Attribute() string
	// MaxLevel returns the coarsest level; valid levels are 0..MaxLevel.
	// Generalizing to MaxLevel yields the suppressed value.
	MaxLevel() int
	// Generalize maps a ground value to its generalized form at the given
	// level. Level 0 returns the value unchanged. It returns an error if
	// the level is out of range or the value is not part of the
	// hierarchy's domain.
	Generalize(v dataset.Value, level int) (dataset.Value, error)
	// Loss returns the Iyengar general-loss-metric contribution in [0,1]
	// of generalizing the ground value v to the given level: 0 for the
	// exact value, 1 for full suppression.
	Loss(v dataset.Value, level int) (float64, error)
}

// Set maps attribute names to their hierarchies and validates coverage of a
// schema's quasi-identifiers.
type Set map[string]Hierarchy

// NewSet builds a Set and verifies each hierarchy names a distinct attribute.
func NewSet(hs ...Hierarchy) (Set, error) {
	s := make(Set, len(hs))
	for _, h := range hs {
		if _, dup := s[h.Attribute()]; dup {
			return nil, fmt.Errorf("hierarchy: duplicate hierarchy for attribute %q", h.Attribute())
		}
		s[h.Attribute()] = h
	}
	return s, nil
}

// MustSet is NewSet that panics on error, for fixtures.
func MustSet(hs ...Hierarchy) Set {
	s, err := NewSet(hs...)
	if err != nil {
		panic(err)
	}
	return s
}

// CoverQI verifies the set has a hierarchy for every quasi-identifier of the
// schema.
func (s Set) CoverQI(schema *dataset.Schema) error {
	for _, j := range schema.QuasiIdentifiers() {
		name := schema.Attrs[j].Name
		if _, ok := s[name]; !ok {
			return fmt.Errorf("hierarchy: no hierarchy for quasi-identifier %q", name)
		}
	}
	return nil
}

// MaxLevels returns the per-attribute maximum levels for the schema's
// quasi-identifiers, in schema order. It is the shape of the generalization
// lattice.
func (s Set) MaxLevels(schema *dataset.Schema) ([]int, error) {
	if err := s.CoverQI(schema); err != nil {
		return nil, err
	}
	qi := schema.QuasiIdentifiers()
	levels := make([]int, len(qi))
	for i, j := range qi {
		levels[i] = s[schema.Attrs[j].Name].MaxLevel()
	}
	return levels, nil
}

// GeneralizeColumn maps every cell of col to its form at the given level.
// It calls h.Generalize once per dictionary entry, not once per row, and
// gathers the row codes through the result.
func GeneralizeColumn(col *dataset.Column, h Hierarchy, level int) (*dataset.Column, error) {
	dict := make([]dataset.Value, col.Card())
	for d, v := range col.Dict() {
		g, err := h.Generalize(v, level)
		if err != nil {
			return nil, err
		}
		dict[d] = g
	}
	if level == 0 {
		// Level 0 is the identity, and tables are immutable.
		return col, nil
	}
	return dataset.ColumnFromCodes(dict, col.Codes())
}

// GeneralizeTable applies per-attribute levels (aligned with the schema's
// quasi-identifier order) to the table, returning a new table. Non-QI
// columns are shared with the input; sensitive columns are never
// generalized here.
func GeneralizeTable(t *dataset.Table, s Set, levels []int) (*dataset.Table, error) {
	qi := t.Schema.QuasiIdentifiers()
	if len(levels) != len(qi) {
		return nil, fmt.Errorf("hierarchy: %d levels for %d quasi-identifiers", len(levels), len(qi))
	}
	cols := t.Columns()
	for li, j := range qi {
		name := t.Schema.Attrs[j].Name
		h, ok := s[name]
		if !ok {
			return nil, fmt.Errorf("hierarchy: no hierarchy for quasi-identifier %q", name)
		}
		g, err := GeneralizeColumn(cols[j], h, levels[li])
		if err != nil {
			return nil, fmt.Errorf("hierarchy: attribute %q: %w", name, err)
		}
		cols[j] = g
	}
	return dataset.TableOf(t.Schema, cols)
}

// SuppressRows returns a copy of t in which every quasi-identifier cell of
// the listed rows is the suppressed value "*". This is how algorithms
// realize tuple suppression while keeping the table size constant (paper
// §3). Columns other than the quasi-identifiers are shared with t.
func SuppressRows(t *dataset.Table, rows []int) (*dataset.Table, error) {
	if len(rows) == 0 {
		return t, nil
	}
	cols := t.Columns()
	for _, j := range t.Schema.QuasiIdentifiers() {
		col := cols[j]
		star := uint32(col.Card())
		dict := append(col.Dict()[:star:star], dataset.StarVal())
		codes := append([]uint32(nil), col.Codes()...)
		for _, i := range rows {
			if i < 0 || i >= len(codes) {
				return nil, fmt.Errorf("hierarchy: suppressed row %d out of range [0,%d)", i, len(codes))
			}
			codes[i] = star
		}
		var err error
		if cols[j], err = dataset.ColumnFromCodes(dict, codes); err != nil {
			return nil, err
		}
	}
	return dataset.TableOf(t.Schema, cols)
}

func checkLevel(level, max int) error {
	if level < 0 || level > max {
		return fmt.Errorf("level %d out of range [0,%d]", level, max)
	}
	return nil
}
