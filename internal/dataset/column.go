package dataset

import (
	"fmt"
	"sync"
)

// Column is a dictionary-encoded column vector: the storage behind every
// Table. Every distinct cell value (by Value.Key) is stored once in the
// dictionary, in first-appearance row order, and each row holds only a
// compact uint32 code. Every dictionary entry is used by at least one row.
// This single encoding covers every ValueKind uniformly — exact numerics
// and strings as well as the generalized Interval/Prefix/Set/Star/Missing
// forms — while keeping the hot loops (equivalence-class grouping,
// fragment precompute, histogram tallies) on integer vectors instead of
// tagged-union cells.
//
// A Column is written only by the Columnar builder that owns it, or built
// whole by ColumnFromCodes; once part of a Table it never changes and is
// safe for any number of concurrent readers. The lazily materialized view
// (Values) is internally synchronized.
type Column struct {
	codes  []uint32
	dict   []Value
	keys   []string          // dict-aligned canonical Value.Key strings
	index  map[string]uint32 // key -> code; builder columns only
	memo   map[string]uint32 // raw CSV field text -> code; builder columns only, nil past memoCutoff
	allNum bool              // every dictionary entry is an exact Num

	mu     sync.Mutex
	values []Value // lazily materialized row-aligned view; treat as read-only
}

func newColumn() *Column {
	return &Column{index: make(map[string]uint32), memo: make(map[string]uint32), allNum: true}
}

// memoCutoff is the memo size past which a column whose texts barely
// repeat stops memoizing field text: see remember.
const memoCutoff = 2048

// ColumnFromCodes builds a column whose row i holds dict[codes[i]]. It is
// the one constructor of derived columns (generalized, suppressed or
// locally recoded): dictionary entries with equal keys are merged, unused
// entries are dropped, and codes are renumbered in first-appearance row
// order, so the result is exactly the column a builder would produce by
// appending the same cells. An out-of-range code is an error. Neither
// input is retained.
func ColumnFromCodes(dict []Value, codes []uint32) (*Column, error) {
	const unseen = ^uint32(0)
	// canon[d] is the first dictionary index sharing d's key; remap[d]
	// is the new code of canonical entry d once a row has used it.
	canon := make([]uint32, len(dict))
	keys := make([]string, len(dict))
	remap := make([]uint32, len(dict))
	first := make(map[string]uint32, len(dict))
	for d, v := range dict {
		k := v.Key()
		c, ok := first[k]
		if !ok {
			c = uint32(d)
			first[k] = c
		}
		canon[d], keys[d], remap[d] = c, k, unseen
	}
	c := &Column{codes: make([]uint32, len(codes)), allNum: true}
	for i, code := range codes {
		if int(code) >= len(dict) {
			return nil, fmt.Errorf("dataset: row %d has code %d, dictionary has %d entries", i, code, len(dict))
		}
		d := canon[code]
		nc := remap[d]
		if nc == unseen {
			nc = c.addEntry(dict[d], keys[d])
			remap[d] = nc
		}
		c.codes[i] = nc
	}
	return c, nil
}

// addEntry appends a dictionary entry and returns its code.
func (c *Column) addEntry(v Value, key string) uint32 {
	code := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.keys = append(c.keys, key)
	c.allNum = c.allNum && v.Kind() == Num
	return code
}

// intern returns v's code, adding v to the dictionary if it is new.
func (c *Column) intern(v Value) uint32 {
	k := v.Key()
	code, ok := c.index[k]
	if !ok {
		code = c.addEntry(v, k)
		c.index[k] = code
	}
	return code
}

// remember memoizes the code of a CSV field text. A column stops
// memoizing for good once its memo holds more than memoCutoff texts and
// more than half as many texts as rows: its texts barely repeat, so the
// memo would cost a map insert per row and save almost no parses.
func (c *Column) remember(text string, code uint32) {
	if c.memo == nil {
		return
	}
	c.memo[text] = code
	if n := len(c.memo); n > memoCutoff && 2*n > len(c.codes) {
		c.memo = nil
	}
}

// append adds one cell and returns its dictionary code.
func (c *Column) append(v Value) uint32 {
	code := c.intern(v)
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

// Value returns row i's cell value.
func (c *Column) Value(i int) Value { return c.dict[c.codes[i]] }

// IsNumeric reports whether every dictionary entry is an exact Num value.
func (c *Column) IsNumeric() bool { return c.allNum && len(c.dict) > 0 }

// grow reserves capacity for n more rows in the code vector, so bulk
// ingest paths with a known chunk size avoid repeated slice regrowth.
func (c *Column) grow(n int) {
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

// Values returns a row-aligned []Value view of the column, materialized at
// most once and cached. The slice is shared across callers; treat it as
// read-only.
func (c *Column) Values() []Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.values == nil {
		vals := make([]Value, len(c.codes))
		for i, code := range c.codes {
			vals[i] = c.dict[code]
		}
		c.values = vals
	}
	return c.values
}

// Columnar builds a Table column by column: a schema plus one
// dictionary-encoded Column per attribute, appended row by row. Table
// seals the builder and returns the table in O(columns), sharing the
// columns; any append after that is an error, so a table never changes
// once read.
//
// Build on a single goroutine.
type Columnar struct {
	schema *Schema
	cols   []*Column
	rows   int
	table  *Table // non-nil once sealed

	// Per-record scratch of appendFields.
	codeBuf []uint32
	textBuf []string
	valBuf  []Value
}

// NewColumnar returns an empty builder over the schema.
func NewColumnar(schema *Schema) *Columnar {
	cols := make([]*Column, schema.Len())
	for j := range cols {
		cols[j] = newColumn()
	}
	n := schema.Len()
	return &Columnar{schema: schema, cols: cols,
		codeBuf: make([]uint32, n), textBuf: make([]string, n), valBuf: make([]Value, n)}
}

// Grow reserves capacity for n more rows in every column, so chunked
// ingest with a known size estimate avoids per-column slice regrowth. It
// does nothing once the builder is sealed.
func (c *Columnar) Grow(n int) {
	if c.table != nil {
		return
	}
	for _, col := range c.cols {
		col.grow(n)
	}
}

func (c *Columnar) checkOpen() error {
	if c.table != nil {
		return fmt.Errorf("dataset: append after Table sealed the builder")
	}
	return nil
}

// AppendRow adds a row after validating its width. It fails once Table
// has sealed the builder.
func (c *Columnar) AppendRow(row []Value) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	if len(row) != c.schema.Len() {
		return fmt.Errorf("dataset: row has %d cells, schema has %d attributes", len(row), c.schema.Len())
	}
	for j, v := range row {
		c.cols[j].append(v)
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

// AppendTable appends every row of each table in turn; their schemas must
// have the builder's width. It interns each dictionary entry once per
// column and then copies codes, so concatenating tables costs O(N)
// integer work.
func (c *Columnar) AppendTable(tables ...*Table) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	for _, t := range tables {
		if t.Schema.Len() != c.schema.Len() {
			return fmt.Errorf("dataset: table has %d attributes, schema has %d", t.Schema.Len(), c.schema.Len())
		}
	}
	for _, t := range tables {
		for j, src := range t.cols {
			dst := c.cols[j]
			remap := make([]uint32, src.Card())
			for d, v := range src.dict {
				remap[d] = dst.intern(v)
			}
			for _, code := range src.codes {
				dst.codes = append(dst.codes, remap[code])
			}
		}
		c.rows += t.n
	}
	return nil
}

// Table seals the builder and returns its table, sharing the columns. It
// drops the builder-only maps (the key index and the field-text memo) and
// returns the same table on every call.
func (c *Columnar) Table() *Table {
	if c.table == nil {
		for _, col := range c.cols {
			col.index, col.memo = nil, nil
		}
		c.table = &Table{Schema: c.schema, cols: c.cols, n: c.rows}
	}
	return c.table
}
