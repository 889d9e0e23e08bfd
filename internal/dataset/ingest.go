package dataset

import (
	"fmt"
	"io"
	"strings"
)

// CSVIngester is a push-style, chunk-tolerant CSV parser building a
// Columnar table: callers feed arbitrary byte chunks (network frames, file
// blocks) via Write and the ingester assembles complete CSV records across
// chunk boundaries — including quoted fields containing commas, escaped
// quotes and embedded newlines — parsing each record straight into
// dictionary-encoded columns. No [][]Value is ever materialized and no
// more than one record of text is buffered beyond the unconsumed tail.
//
// The record syntax is RFC 4180 with strict quoting, as encoding/csv
// reads it (the test-only ReferenceReadCSV pins the two): the first
// record must be the header matching the schema's attribute names in
// order, "" escapes a quote inside a quoted field, \r\n inside a quoted
// field normalizes to \n, empty lines are skipped, and a bare quote
// inside an unquoted field is an error. The chunked and
// whole-input parses are byte-for-byte identical regardless of where the
// chunk boundaries fall.
type CSVIngester struct {
	schema *Schema
	cols   *Columnar

	buf     []byte // unconsumed input tail
	scanned int    // bytes of buf already boundary-scanned
	inQuote bool   // quote state at buf[scanned]

	record    int   // 1-based record counter (header is record 1)
	parsed    int64 // bytes consumed by completed records, for row estimates
	sawHeader bool
	closed    bool
	err       error

	fields  [][]byte // per-record scratch: field text, aliasing buf or unquote
	unquote []byte   // per-record scratch: unescaped quoted fields
}

// NewCSVIngester returns an ingester for the schema. Feed chunks with
// Write, then Close; Table returns the accumulated table.
func NewCSVIngester(schema *Schema) *CSVIngester {
	return &CSVIngester{schema: schema, cols: NewColumnar(schema)}
}

// Write feeds one chunk. It implements io.Writer: every call consumes the
// whole chunk or returns the error that stopped parsing; once an error is
// returned, the ingester is poisoned and further calls return it again.
func (g *CSVIngester) Write(p []byte) (int, error) {
	if g.err != nil {
		return 0, g.err
	}
	if g.closed {
		g.err = fmt.Errorf("dataset: CSV ingest: write after Close")
		return 0, g.err
	}
	// Preallocate the column builders from the chunk size: once a few
	// records have been parsed, the running bytes-per-record average turns
	// the incoming chunk length into a row estimate, so large ingests grow
	// each column once per chunk instead of O(log rows) times via append.
	if g.record > 0 && g.parsed > 0 {
		if avg := g.parsed / int64(g.record); avg > 0 {
			g.cols.Grow(int(int64(len(p))/avg) + 1)
		}
	}
	g.buf = append(g.buf, p...)
	if err := g.drain(); err != nil {
		g.err = err
		return 0, err
	}
	return len(p), nil
}

// Close flushes a final unterminated record (input not ending in a
// newline) and seals the ingester.
func (g *CSVIngester) Close() error {
	if g.err != nil {
		return g.err
	}
	if g.closed {
		return nil
	}
	g.closed = true
	if g.inQuote {
		g.err = fmt.Errorf("dataset: CSV ingest: unterminated quoted field at end of input")
		return g.err
	}
	if len(g.buf) > 0 {
		if err := g.endRecord(g.buf); err != nil {
			g.err = err
			return err
		}
		g.buf = nil
	}
	if !g.sawHeader {
		g.err = fmt.Errorf("dataset: CSV ingest: no header record")
		return g.err
	}
	return nil
}

// Len returns the number of data rows ingested so far.
func (g *CSVIngester) Len() int { return g.cols.Len() }

// Table seals the accumulated builder and returns its table; a later
// Write fails.
func (g *CSVIngester) Table() *Table { return g.cols.Table() }

// ingestChunk is the read-buffer size of IngestCSVTable: large enough to
// amortize read calls and column growth, small enough to stay
// cache-friendly.
const ingestChunk = 256 << 10

// IngestCSVTable parses a CSV stream whose header must match the schema's
// attribute names in order into a sealed table. Numeric columns are parsed
// as floats; a bare "*" parses as the suppressed value; "(lo,hi]" parses
// as an interval; a trailing run of '*' after a non-empty prefix parses as
// a Prefix value. Everything else in a categorical column is an exact
// string.
//
// It reads ingestChunk bytes at a time and feeds each read to a
// CSVIngester, so no more than a chunk of input and an unconsumed record
// tail are ever resident, and cells stream straight into
// dictionary-encoded columns.
func IngestCSVTable(r io.Reader, schema *Schema) (*Table, error) {
	g := NewCSVIngester(schema)
	buf := make([]byte, ingestChunk)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := g.Write(buf[:n]); werr != nil {
				return nil, werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV ingest: %w", err)
		}
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	return g.Table(), nil
}

// drain scans the buffered bytes for complete records (newlines outside
// quoted fields) and parses each one, compacting the buffer afterwards.
func (g *CSVIngester) drain() error {
	start := 0
	for i := g.scanned; i < len(g.buf); i++ {
		switch g.buf[i] {
		case '"':
			// Toggling on every quote is exact for well-formed CSV: quotes
			// appear only opening/closing fields or doubled inside quoted
			// fields, and a doubled "" toggles out and straight back in.
			g.inQuote = !g.inQuote
		case '\n':
			if !g.inQuote {
				if err := g.endRecord(g.buf[start:i]); err != nil {
					return err
				}
				start = i + 1
			}
		}
	}
	g.scanned = len(g.buf)
	if start > 0 {
		g.parsed += int64(start)
		rest := copy(g.buf, g.buf[start:])
		g.buf = g.buf[:rest]
		g.scanned = rest
	}
	return nil
}

// endRecord handles one complete record line (without its terminating
// newline): header validation for record 1, cell parsing into the columns
// for every later record. Empty lines are skipped, as encoding/csv does.
func (g *CSVIngester) endRecord(line []byte) error {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) == 0 {
		return nil
	}
	g.record++
	fields, err := g.splitRecord(line)
	if err != nil {
		return err
	}
	if len(fields) != g.schema.Len() {
		return fmt.Errorf("dataset: CSV ingest: record %d has %d fields, schema has %d attributes", g.record, len(fields), g.schema.Len())
	}
	if !g.sawHeader {
		for j, a := range g.schema.Attrs {
			if strings.TrimSpace(string(fields[j])) != a.Name {
				return fmt.Errorf("dataset: CSV column %d is %q, schema expects %q", j, fields[j], a.Name)
			}
		}
		g.sawHeader = true
		return nil
	}
	return appendFields(g.cols, fields, g.record)
}

// splitRecord splits one record into fields with RFC 4180 strict-quote
// semantics, matching encoding/csv for well-formed input. An unquoted
// field aliases line; a quoted one is unescaped into the per-record
// scratch buffer. Both are valid until the next record.
func (g *CSVIngester) splitRecord(line []byte) ([][]byte, error) {
	fields := g.fields[:0]
	unquote := g.unquote[:0]
	i := 0
	for {
		if i < len(line) && line[i] == '"' {
			i++
			start := len(unquote)
			closed := false
			for i < len(line) {
				c := line[i]
				if c == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						unquote = append(unquote, '"')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				if c == '\r' && i+1 < len(line) && line[i+1] == '\n' {
					// encoding/csv normalizes \r\n inside quoted fields.
					unquote = append(unquote, '\n')
					i += 2
					continue
				}
				unquote = append(unquote, c)
				i++
			}
			if !closed {
				return nil, fmt.Errorf("dataset: CSV ingest: record %d: missing closing quote", g.record)
			}
			if i < len(line) && line[i] != ',' {
				return nil, fmt.Errorf("dataset: CSV ingest: record %d: extraneous data after quoted field", g.record)
			}
			// Capped, so a later append that grows the scratch in place
			// cannot reach into this field; one that reallocates leaves it
			// on the old array.
			fields = append(fields, unquote[start:len(unquote):len(unquote)])
		} else {
			start := i
			for i < len(line) && line[i] != ',' {
				if line[i] == '"' {
					return nil, fmt.Errorf("dataset: CSV ingest: record %d: bare quote in unquoted field", g.record)
				}
				i++
			}
			fields = append(fields, line[start:i:i])
		}
		if i >= len(line) {
			break
		}
		i++ // consume the comma; a trailing comma yields a final empty field
	}
	g.fields, g.unquote = fields, unquote
	return fields, nil
}
