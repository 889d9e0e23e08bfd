package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV parses a CSV stream whose header must match the schema's attribute
// names in order. Numeric columns are parsed as floats; a bare "*" parses as
// the suppressed value; "(lo,hi]" parses as an interval; a trailing run of
// '*' after a non-empty prefix parses as a Prefix value. Everything else in a
// categorical column is an exact string.
//
// Ingest is columnar: cells stream straight into dictionary-encoded
// columns, and the table is the sealed builder.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	c, err := ReadCSVColumnar(r, schema)
	if err != nil {
		return nil, err
	}
	return c.Table(), nil
}

// ReadCSVColumnar is ReadCSV returning the unsealed builder: it streams
// records into a Columnar, never holding more than one CSV record of
// row-oriented state.
func ReadCSVColumnar(r io.Reader, schema *Schema) (*Columnar, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.Len()
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	for j, a := range schema.Attrs {
		if strings.TrimSpace(header[j]) != a.Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", j, header[j], a.Name)
		}
	}
	c := NewColumnar(schema)
	row := make([]Value, schema.Len())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		for j, field := range rec {
			v, err := ParseValue(strings.TrimSpace(field), schema.Attrs[j].Kind)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d, column %q: %w", line, schema.Attrs[j].Name, err)
			}
			row[j] = v
		}
		if err := c.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ParseValue parses one CSV field according to the attribute kind. See
// ReadCSV for the accepted syntax.
func ParseValue(s string, kind AttrKind) (Value, error) {
	if s == "*" {
		return StarVal(), nil
	}
	if s == "" || s == "?" {
		return Value{}, fmt.Errorf("missing value %q", s)
	}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, "]") {
		body := s[1 : len(s)-1]
		parts := strings.SplitN(body, ",", 2)
		if len(parts) != 2 {
			return Value{}, fmt.Errorf("malformed interval %q", s)
		}
		lo, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		hi, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil {
			return Value{}, fmt.Errorf("malformed interval %q", s)
		}
		if hi < lo {
			return Value{}, fmt.Errorf("interval %q has hi < lo", s)
		}
		return IntervalVal(lo, hi), nil
	}
	if n := len(s) - len(strings.TrimRight(s, "*")); n > 0 {
		prefix := s[:len(s)-n]
		if prefix == "" {
			return StarVal(), nil
		}
		return PrefixVal(prefix, n), nil
	}
	if kind == Numeric {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("malformed number %q", s)
		}
		return NumVal(f), nil
	}
	return StrVal(s), nil
}

// WriteCSV writes the table with a header row, rendering cells with
// Value.String so that ReadCSV round-trips generalized values. Each
// dictionary entry is rendered once per column. A cell whose text holds
// "\r\n" is an error: CSV readers fold it to "\n", so it cannot round-trip.
func WriteCSV(w io.Writer, t *Table) error {
	text := t.renderedColumns()
	for j, col := range text {
		for _, s := range col {
			if strings.Contains(s, "\r\n") {
				return fmt.Errorf("dataset: column %q: cell %q holds \\r\\n, which CSV cannot carry", t.Schema.Attrs[j].Name, s)
			}
		}
	}
	cw := csv.NewWriter(w)
	header := make([]string, t.Schema.Len())
	for j, a := range t.Schema.Attrs {
		header[j] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	rec := make([]string, t.Schema.Len())
	for i := 0; i < t.n; i++ {
		for j, c := range t.cols {
			rec[j] = text[j][c.codes[i]]
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
