package dataset

import (
	"fmt"
	"strings"
)

// Role classifies how an attribute participates in disclosure control.
type Role uint8

const (
	// Insensitive attributes are neither quasi-identifying nor sensitive.
	Insensitive Role = iota
	// QuasiIdentifier attributes can link a tuple to an external source
	// and are the ones generalized by anonymization algorithms.
	QuasiIdentifier
	// Sensitive attributes carry the private information (disease,
	// salary, marital status in the paper's running example).
	Sensitive
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case Insensitive:
		return "insensitive"
	case QuasiIdentifier:
		return "quasi-identifier"
	case Sensitive:
		return "sensitive"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// AttrKind is the ground domain of an attribute.
type AttrKind uint8

const (
	// Categorical attributes hold string values generalized through a
	// taxonomy (or by suppression).
	Categorical AttrKind = iota
	// Numeric attributes hold numbers generalized into intervals.
	Numeric
)

// String returns the kind name.
func (k AttrKind) String() string {
	if k == Numeric {
		return "numeric"
	}
	return "categorical"
}

// Attribute describes one column of a microdata table.
type Attribute struct {
	Name string
	Kind AttrKind
	Role Role
}

// Schema is an ordered list of attributes.
type Schema struct {
	Attrs []Attribute
	// byName memoizes attribute name -> index. NewSchema builds it; Index
	// falls back to a linear scan for literal-constructed schemas or after
	// Attrs is resized by hand.
	byName map[string]int
}

// NewSchema builds a schema from the given attributes, rejecting duplicate
// or empty names.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	byName := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("dataset: attribute with empty name")
		}
		if _, dup := byName[a.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		byName[a.Name] = i
	}
	return &Schema{Attrs: attrs, byName: byName}, nil
}

// MustSchema is NewSchema that panics on error; intended for fixtures and
// tests where the schema is a literal.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.Attrs) }

// Index returns the position of the named attribute, or -1. Schemas built
// by NewSchema/MustSchema answer from a memoized map; Index used to sit
// inside per-row loops via ColumnByName callers, where the O(attrs) scan
// compounded.
func (s *Schema) Index(name string) int {
	if len(s.byName) == len(s.Attrs) {
		if i, ok := s.byName[name]; ok {
			return i
		}
		return -1
	}
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Attr returns the named attribute.
func (s *Schema) Attr(name string) (Attribute, bool) {
	if i := s.Index(name); i >= 0 {
		return s.Attrs[i], true
	}
	return Attribute{}, false
}

// QuasiIdentifiers returns the indices of quasi-identifier attributes in
// schema order.
func (s *Schema) QuasiIdentifiers() []int {
	var qi []int
	for i, a := range s.Attrs {
		if a.Role == QuasiIdentifier {
			qi = append(qi, i)
		}
	}
	return qi
}

// SensitiveIndex returns the index of the first sensitive attribute, or -1.
func (s *Schema) SensitiveIndex() int {
	for i, a := range s.Attrs {
		if a.Role == Sensitive {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	attrs := make([]Attribute, len(s.Attrs))
	copy(attrs, s.Attrs)
	byName := make(map[string]int, len(attrs))
	for i, a := range attrs {
		byName[a.Name] = i
	}
	return &Schema{Attrs: attrs, byName: byName}
}

// Table is a microdata table: a schema plus N rows held as one sealed,
// dictionary-encoded Column per attribute. Tables are immutable: a
// Columnar builder produces them, and a derived table (a generalization,
// a suppression) is a new Table that shares every column it does not
// change. The original data set therefore stays available for property
// measurement without copying, and no cached view can go stale.
type Table struct {
	Schema *Schema
	cols   []*Column
	n      int
}

// TableOf assembles a table from one column per schema attribute; every
// column must hold the same number of rows. The columns are shared, not
// copied.
func TableOf(schema *Schema, cols []*Column) (*Table, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("dataset: %d columns for %d attributes", len(cols), schema.Len())
	}
	n := 0
	for j, c := range cols {
		if j == 0 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("dataset: column %q has %d rows, column %q has %d", schema.Attrs[j].Name, c.Len(), schema.Attrs[0].Name, n)
		}
	}
	return &Table{Schema: schema, cols: cols, n: n}, nil
}

// Len returns the number of rows (the paper's N).
func (t *Table) Len() int { return t.n }

// At returns the cell at row i, column j.
func (t *Table) At(i, j int) Value { return t.cols[j].Value(i) }

// Columns returns a fresh slice of the table's columns, the starting point
// for deriving a table with TableOf. The columns themselves are shared.
func (t *Table) Columns() []*Column { return append([]*Column(nil), t.cols...) }

// ColumnVector returns column j as a dictionary-encoded Column.
func (t *Table) ColumnVector(j int) *Column { return t.cols[j] }

// Column returns column j as a row-aligned []Value, materialized once per
// column and shared; treat it as read-only.
func (t *Table) Column(j int) []Value { return t.cols[j].Values() }

// Float64Column returns column j as a typed, non-dictionary Float64Column,
// built at most once and shared; ok is false unless every cell is an exact
// Num.
func (t *Table) Float64Column(j int) (*Float64Column, bool) { return t.cols[j].Float64View() }

// ColumnByName returns the named column as a shared []Value.
func (t *Table) ColumnByName(name string) ([]Value, error) {
	j := t.Schema.Index(name)
	if j < 0 {
		return nil, fmt.Errorf("dataset: no attribute %q", name)
	}
	return t.Column(j), nil
}

// DistinctCount returns the number of distinct values (by Key) in column j.
func (t *Table) DistinctCount(j int) int { return t.cols[j].Card() }

// NumericRange returns the min and max of a Numeric column over exact
// values. Interval cells contribute their bounds. It returns ok=false if
// the column holds no numeric information. The scan runs over the
// dictionary, in first-appearance order, so it costs O(distinct values).
func (t *Table) NumericRange(j int) (lo, hi float64, ok bool) {
	first := true
	for _, v := range t.cols[j].Dict() {
		var l, h float64
		switch v.Kind() {
		case Num:
			l, h = v.Float(), v.Float()
		case Interval:
			l, h = v.Bounds()
		default:
			continue
		}
		if first {
			lo, hi, first = l, h, false
			continue
		}
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	return lo, hi, !first
}

// renderedColumns renders every dictionary entry of every column once,
// with Value.String; cell (i, j) renders as out[j][t.cols[j].Code(i)].
func (t *Table) renderedColumns() [][]string {
	out := make([][]string, len(t.cols))
	for j, c := range t.cols {
		out[j] = make([]string, c.Card())
		for d, v := range c.Dict() {
			out[j][d] = v.String()
		}
	}
	return out
}

// Format renders the table as an aligned text table in the style the paper
// uses, with a row-index column when index is true.
func (t *Table) Format(index bool) string {
	var b strings.Builder
	ncol := t.Schema.Len()
	widths := make([]int, ncol)
	header := make([]string, ncol)
	for j, a := range t.Schema.Attrs {
		header[j] = a.Name
		widths[j] = len(a.Name)
	}
	text := t.renderedColumns()
	for j := range text {
		// Every dictionary entry is used by some row, so the widest entry
		// is the widest cell.
		for _, s := range text[j] {
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	idxW := len(fmt.Sprint(t.n))
	row := make([]string, ncol)
	writeRow := func(idx string, row []string) {
		if index {
			fmt.Fprintf(&b, "%*s  ", idxW, idx)
		}
		for j, s := range row {
			fmt.Fprintf(&b, "%-*s", widths[j], s)
			if j < ncol-1 {
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	writeRow("", header)
	for i := 0; i < t.n; i++ {
		for j, c := range t.cols {
			row[j] = text[j][c.Code(i)]
		}
		writeRow(fmt.Sprint(i+1), row)
	}
	return b.String()
}
