package dataset

import (
	"bufio"
	"bytes"
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
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if err := appendFields(c, rec, line); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// unresolved marks a record field whose text missed its column's memo.
const unresolved = ^uint32(0)

// appendFields appends one CSV record, given as raw field text with one
// field per attribute, to the builder; line numbers the record in errors.
// It is the one cell path of both CSV readers, which check the field
// count. Each column memoizes field text to dictionary code, so a text
// seen before costs one map lookup, which allocates nothing for byte-slice
// fields. A new text is trimmed, parsed with ParseValue and interned,
// exactly as a per-cell ingest would: ParseValue is a pure function of the
// text and the kind, so the dictionaries (in first-appearance order) and
// the codes do not depend on the memo. Every field is resolved before any
// is appended, so a failing record leaves the builder unchanged.
func appendFields[F string | []byte](c *Columnar, fields []F, line int) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	for j, f := range fields {
		if code, ok := c.cols[j].memo[string(f)]; ok {
			c.codeBuf[j] = code
			continue
		}
		text := string(f)
		v, err := ParseValue(strings.TrimSpace(text), c.schema.Attrs[j].Kind)
		if err != nil {
			return fmt.Errorf("dataset: line %d, column %q: %w", line, c.schema.Attrs[j].Name, err)
		}
		c.codeBuf[j], c.textBuf[j], c.valBuf[j] = unresolved, text, v
	}
	for j, col := range c.cols {
		if code := c.codeBuf[j]; code != unresolved {
			col.codes = append(col.codes, code)
			continue
		}
		code := col.append(c.valBuf[j])
		col.remember(c.textBuf[j], code)
	}
	c.rows++
	return nil
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
// dictionary entry is rendered and quoted once per column, with
// encoding/csv's own quoting rules; rows are then written as bytes.
// Quoting is per field, so the output is byte-identical to writing every
// row through a csv.Writer. A cell whose text holds "\r\n" is an error:
// CSV readers fold it to "\n", so it cannot round-trip.
func WriteCSV(w io.Writer, t *Table) error {
	// quote returns s as encoding/csv writes it in a record: the field is
	// written as a one-field record and its newline dropped.
	var scratch bytes.Buffer
	cw := csv.NewWriter(&scratch)
	field := make([]string, 1)
	quote := func(s string) string {
		scratch.Reset()
		field[0] = s
		cw.Write(field) // writes to a bytes.Buffer cannot fail
		cw.Flush()
		return string(scratch.Bytes()[:scratch.Len()-1])
	}
	// quoted[j][d] is dictionary entry d of column j as it appears in a row.
	quoted := t.renderedColumns()
	for j, col := range quoted {
		for d, s := range col {
			if strings.Contains(s, "\r\n") {
				return fmt.Errorf("dataset: column %q: cell %q holds \\r\\n, which CSV cannot carry", t.Schema.Attrs[j].Name, s)
			}
			col[d] = quote(s)
		}
	}
	// A bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriterSize(w, 64<<10)
	for j, a := range t.Schema.Attrs {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(quote(a.Name))
	}
	bw.WriteByte('\n')
	for i := 0; i < t.n; i++ {
		for j, c := range t.cols {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(quoted[j][c.codes[i]])
		}
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: writing CSV: %w", err)
	}
	return nil
}
