package dataset

import (
	"fmt"
	"sync"
)

// Column is a dictionary-encoded column vector: the typed columnar backing
// behind Columnar tables. Every distinct cell value (by Value.Key) is
// stored once in the dictionary, in first-appearance order, and each row
// holds only a compact uint32 code. This single encoding covers every
// ValueKind uniformly — exact numerics and strings as well as the
// generalized Interval/Prefix/Set/Star/Missing forms — while keeping the
// hot loops (equivalence-class grouping, fragment precompute, histogram
// tallies) on integer vectors instead of tagged-union cells.
//
// Numeric columns additionally carry a dictionary-aligned float64 payload,
// so full-column numeric scans (ranges, sorts, the permutation-model
// measures queued on the roadmap) run on flat float data.
//
// Concurrency contract: a Column has a SINGLE writer while it is being
// built (Append/Grow, one goroutine) and becomes safe for any number of
// concurrent readers once building stops. The lazily materialized views
// (Values, Float64View) are internally synchronized and may be
// requested concurrently by readers, but never while a writer is still
// appending.
type Column struct {
	codes  []uint32
	dict   []Value
	keys   []string // dict-aligned canonical Value.Key strings
	index  map[string]uint32
	nums   []float64 // dict-aligned float payload; meaningful iff allNum
	allNum bool

	mu     sync.Mutex
	values []Value        // lazily materialized row-aligned view; treat as read-only
	f64    *Float64Column // lazily materialized typed view, iff IsNumeric
}

// NewColumn returns an empty dictionary-encoded column.
func NewColumn() *Column {
	return &Column{index: make(map[string]uint32), allNum: true}
}

// Append adds one cell and returns its dictionary code.
func (c *Column) Append(v Value) uint32 {
	k := v.Key()
	code, ok := c.index[k]
	if !ok {
		code = uint32(len(c.dict))
		c.index[k] = code
		c.dict = append(c.dict, v)
		c.keys = append(c.keys, k)
		if v.Kind() == Num {
			c.nums = append(c.nums, v.Float())
		} else {
			c.nums = append(c.nums, 0)
			c.allNum = false
		}
	}
	c.codes = append(c.codes, code)
	return code
}

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.codes) }

// Card returns the dictionary cardinality: the number of distinct values.
func (c *Column) Card() int { return len(c.dict) }

// Codes returns the row-aligned dictionary codes. The slice is shared;
// treat it as read-only.
func (c *Column) Codes() []uint32 { return c.codes }

// Code returns row i's dictionary code.
func (c *Column) Code(i int) uint32 { return c.codes[i] }

// Dict returns the dictionary values in code order. The slice is shared;
// treat it as read-only.
func (c *Column) Dict() []Value { return c.dict }

// DictKeys returns the canonical Value.Key of each dictionary entry, in
// code order. The slice is shared; treat it as read-only.
func (c *Column) DictKeys() []string { return c.keys }

// DictValue returns the dictionary value for a code.
func (c *Column) DictValue(code uint32) Value { return c.dict[code] }

// Value returns row i's cell value.
func (c *Column) Value(i int) Value { return c.dict[c.codes[i]] }

// IsNumeric reports whether every dictionary entry is an exact Num value,
// enabling the flat float64 fast path.
func (c *Column) IsNumeric() bool { return c.allNum && len(c.dict) > 0 }

// NumericDict returns the dictionary-aligned float64 payload, valid only
// when IsNumeric: row i's number is NumericDict()[Code(i)].
func (c *Column) NumericDict() []float64 { return c.nums }

// Floats materializes the column as a flat []float64, ok=false when the
// column is not purely numeric.
func (c *Column) Floats() ([]float64, bool) {
	if !c.IsNumeric() {
		return nil, false
	}
	out := make([]float64, len(c.codes))
	for i, code := range c.codes {
		out[i] = c.nums[code]
	}
	return out, true
}

// Grow reserves capacity for n more rows in the code vector, so bulk
// ingest paths with a known chunk size avoid repeated slice regrowth.
// Single-writer, like Append.
func (c *Column) Grow(n int) {
	if n <= cap(c.codes)-len(c.codes) {
		return
	}
	need := len(c.codes) + n
	newcap := cap(c.codes) + cap(c.codes)/2
	if newcap < need {
		newcap = need
	}
	codes := make([]uint32, len(c.codes), newcap)
	copy(codes, c.codes)
	c.codes = codes
}

// Float64View returns the column as a typed Float64Column — the flat
// non-dictionary numeric fast path — materialized at most once and cached.
// ok is false when the column is not purely numeric. The typed column
// shares no mutable state with the dictionary view; treat it as read-only.
func (c *Column) Float64View() (*Float64Column, bool) {
	if !c.IsNumeric() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f64 == nil || c.f64.Len() != len(c.codes) {
		vals := make([]float64, len(c.codes))
		for i, code := range c.codes {
			vals[i] = c.nums[code]
		}
		c.f64 = Float64ColumnOf(vals)
	}
	return c.f64, true
}

// Values returns a row-aligned []Value view of the column, materialized at
// most once and cached. The slice is shared across callers; treat it as
// read-only.
func (c *Column) Values() []Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.values) != len(c.codes) {
		vals := make([]Value, len(c.codes))
		for i, code := range c.codes {
			vals[i] = c.dict[code]
		}
		c.values = vals
	}
	return c.values
}

// Columnar is the column-oriented microdata table: a schema plus one
// dictionary-encoded Column per attribute. It is the substrate behind
// streaming CSV ingest and the vectorized hot paths; Table offers the
// row-oriented compatibility view over the same data (Table.Columnar /
// Columnar.Table convert between the two, sharing the columns).
//
// Build single-goroutine (AppendRow), then read concurrently.
type Columnar struct {
	schema *Schema
	cols   []*Column
	rows   int
}

// NewColumnar returns an empty columnar table over the schema.
func NewColumnar(schema *Schema) *Columnar {
	cols := make([]*Column, schema.Len())
	for j := range cols {
		cols[j] = NewColumn()
	}
	return &Columnar{schema: schema, cols: cols}
}

// Schema returns the table schema.
func (c *Columnar) Schema() *Schema { return c.schema }

// Len returns the number of rows.
func (c *Columnar) Len() int { return c.rows }

// Col returns column j.
func (c *Columnar) Col(j int) *Column { return c.cols[j] }

// ColByName returns the named column.
func (c *Columnar) ColByName(name string) (*Column, error) {
	j := c.schema.Index(name)
	if j < 0 {
		return nil, fmt.Errorf("dataset: no attribute %q", name)
	}
	return c.cols[j], nil
}

// At returns the cell at row i, column j.
func (c *Columnar) At(i, j int) Value { return c.cols[j].Value(i) }

// Grow reserves capacity for n more rows in every column, so chunked
// ingest with a known size estimate avoids per-column slice regrowth.
// Single-writer, like AppendRow.
func (c *Columnar) Grow(n int) {
	for _, col := range c.cols {
		col.Grow(n)
	}
}

// AppendRow adds a row after validating its width.
func (c *Columnar) AppendRow(row []Value) error {
	if len(row) != c.schema.Len() {
		return fmt.Errorf("dataset: row has %d cells, schema has %d attributes", len(row), c.schema.Len())
	}
	for j, v := range row {
		c.cols[j].Append(v)
	}
	c.rows++
	return nil
}

// MustAppend is AppendRow that panics on error, for fixtures.
func (c *Columnar) MustAppend(row ...Value) {
	if err := c.AppendRow(row); err != nil {
		panic(err)
	}
}

// appendCell grows column j without the per-row width check; the caller
// (the CSV ingest paths) advances the row count itself.
func (c *Columnar) appendCell(j int, v Value) { c.cols[j].Append(v) }

// Table materializes the row-oriented compatibility view: a Table whose
// Rows share the dictionary cells and whose columnar backing is this
// Columnar, so the vectorized paths (eqclass grouping, engine precompute,
// histogram tallies) reuse the codes without re-encoding.
func (c *Columnar) Table() *Table {
	rows := make([][]Value, c.rows)
	ncol := len(c.cols)
	cells := make([]Value, c.rows*ncol)
	for i := range rows {
		rows[i] = cells[i*ncol : (i+1)*ncol : (i+1)*ncol]
		for j, col := range c.cols {
			rows[i][j] = col.dict[col.codes[i]]
		}
	}
	t := &Table{Schema: c.schema, Rows: rows}
	t.cols = c
	return t
}
