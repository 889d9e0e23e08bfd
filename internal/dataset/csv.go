package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// unresolved marks a record field whose text missed its column's memo.
const unresolved = ^uint32(0)

// appendFields appends one CSV record, given as raw field text with one
// field per attribute, to the builder; line numbers the record in errors.
// It is the cell path of CSVIngester, which checks the field count. Each
// column memoizes field text to dictionary code, so a text seen before
// costs one map lookup, which allocates nothing. A new text is trimmed,
// parsed with ParseValue and interned, exactly as a per-cell ingest would:
// ParseValue is a pure function of the text and the kind, so the
// dictionaries (in first-appearance order) and the codes do not depend on
// the memo. Every field is resolved before any is appended, so a failing
// record leaves the builder unchanged.
func appendFields(c *Columnar, fields [][]byte, line int) error {
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
// IngestCSVTable for the accepted syntax.
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
// Value.String so that IngestCSVTable round-trips generalized values. Each
// dictionary entry is rendered and quoted once per column, with
// encoding/csv's quoting rules (quoteCSV); rows are then written as bytes.
// Quoting is per field, so the output is byte-identical to writing every
// row through a csv.Writer. A cell whose text holds "\r\n" is an error:
// CSV readers fold it to "\n", so it cannot round-trip.
func WriteCSV(w io.Writer, t *Table) error {
	// quoted[j][d] is dictionary entry d of column j as it appears in a row.
	quoted := t.renderedColumns()
	for j, col := range quoted {
		for d, s := range col {
			if strings.Contains(s, "\r\n") {
				return fmt.Errorf("dataset: column %q: cell %q holds \\r\\n, which CSV cannot carry", t.Schema.Attrs[j].Name, s)
			}
			col[d] = quoteCSV(s)
		}
	}
	// A bufio.Writer keeps its first write error and Flush returns it.
	bw := bufio.NewWriterSize(w, 64<<10)
	for j, a := range t.Schema.Attrs {
		if j > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(quoteCSV(a.Name))
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

// quoteCSV returns s as a csv.Writer writes it in a record: quoted, with
// quotes doubled, when it holds a comma, a quote, CR or LF, starts with a
// Unicode space, or is `\.`; as it is otherwise.
func quoteCSV(s string) string {
	first, _ := utf8.DecodeRuneInString(s)
	if s == "" || s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(first) {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
