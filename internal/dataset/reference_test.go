package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ReferenceReadCSV is the per-cell ingest the field-text memo replaced:
// every field of every record is trimmed, parsed with ParseValue and
// appended with AppendRow. The fast readers are pinned against it.
func ReferenceReadCSV(r io.Reader, schema *Schema) (*Table, error) {
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
	return c.Table(), nil
}

// ReferenceWriteCSV is WriteCSV as a row loop: every cell is rendered on
// its own and every row goes through a csv.Writer. WriteCSV, which
// renders and quotes each dictionary entry once, is pinned against it
// byte for byte.
func ReferenceWriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	rec := make([]string, t.Schema.Len())
	for j, a := range t.Schema.Attrs {
		rec[j] = a.Name
	}
	if err := cw.Write(rec); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for i := 0; i < t.n; i++ {
		for j := range rec {
			rec[j] = t.At(i, j).String()
			if strings.Contains(rec[j], "\r\n") {
				return fmt.Errorf("dataset: column %q: cell %q holds \\r\\n, which CSV cannot carry", t.Schema.Attrs[j].Name, rec[j])
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SameEncoding reports the first difference between two tables'
// dictionary encodings: row count, each column's dictionary keys in code
// order, and each row's code. Equal cell keys are not enough, since a
// reader that reordered a dictionary would still pass that check.
func SameEncoding(got, want *Table) error {
	if got.Len() != want.Len() || got.Schema.Len() != want.Schema.Len() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Len(), got.Schema.Len(), want.Len(), want.Schema.Len())
	}
	for j := range want.cols {
		g, w := got.cols[j], want.cols[j]
		if len(g.keys) != len(w.keys) {
			return fmt.Errorf("column %d: %d dictionary entries, want %d", j, len(g.keys), len(w.keys))
		}
		for d := range w.keys {
			if g.keys[d] != w.keys[d] {
				return fmt.Errorf("column %d: dictionary entry %d is %q, want %q", j, d, g.keys[d], w.keys[d])
			}
		}
		for i := range w.codes {
			if g.codes[i] != w.codes[i] {
				return fmt.Errorf("column %d row %d: code %d, want %d", j, i, g.codes[i], w.codes[i])
			}
		}
	}
	return nil
}
