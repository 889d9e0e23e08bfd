package dataset

import (
	"strings"
	"testing"
)

// quotedCSV exercises every chunk-hostile construct: quoted commas, escaped
// quotes, embedded newlines (both \n and \r\n), \r\n record terminators and
// a quoted interval.
const quotedCSV = "ZipCode,Age,MaritalStatus\r\n" +
	"13053,28,\"CF-Spouse\"\n" +
	"\"13268\",41,\"Sep,arated\"\r\n" +
	"1305*,\"(25,35]\",\"quote\"\"inside\"\n" +
	"\n" +
	"*,*,*"

func ingestChunks(t *testing.T, schema *Schema, in string, chunk int) (*Table, error) {
	t.Helper()
	g := NewCSVIngester(schema)
	for i := 0; i < len(in); i += chunk {
		end := i + chunk
		if end > len(in) {
			end = len(in)
		}
		if _, err := g.Write([]byte(in[i:end])); err != nil {
			return nil, err
		}
	}
	if err := g.Close(); err != nil {
		return nil, err
	}
	return g.Table(), nil
}

func TestCSVIngesterMatchesReadCSV(t *testing.T) {
	for _, in := range []string{demoCSV, quotedCSV} {
		want, werr := ReferenceReadCSV(strings.NewReader(in), demoSchema(t))
		got, gerr := ingestChunks(t, demoSchema(t), in, len(in))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error disagreement: reference=%v ingester=%v", werr, gerr)
		}
		if werr != nil {
			continue
		}
		if err := SameEncoding(got, want); err != nil {
			t.Error(err)
		}
	}
}

func TestCSVIngesterChunkBoundaryInvariance(t *testing.T) {
	whole, err := ingestChunks(t, demoSchema(t), quotedCSV, len(quotedCSV))
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk size, including 1 byte, must parse identically — chunk
	// boundaries land inside quotes, escapes, \r\n pairs and records.
	for chunk := 1; chunk <= 16; chunk++ {
		got, err := ingestChunks(t, demoSchema(t), quotedCSV, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if got.Len() != whole.Len() {
			t.Fatalf("chunk=%d: Len %d != %d", chunk, got.Len(), whole.Len())
		}
		for i := 0; i < whole.Len(); i++ {
			for j := 0; j < whole.Schema.Len(); j++ {
				if g, w := got.At(i, j).Key(), whole.At(i, j).Key(); g != w {
					t.Errorf("chunk=%d cell (%d,%d): %q != %q", chunk, i, j, g, w)
				}
			}
		}
	}
}

func TestCSVIngesterErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"wrong header", "Zip,Age,MaritalStatus\n13053,28,x\n"},
		{"bad number", "ZipCode,Age,MaritalStatus\n13053,abc,x\n"},
		{"short row", "ZipCode,Age,MaritalStatus\n13053,28\n"},
		{"bare quote", "ZipCode,Age,MaritalStatus\n13\"053,28,x\n"},
		{"unterminated quote", "ZipCode,Age,MaritalStatus\n\"13053,28,x\n"},
		{"extra after quote", "ZipCode,Age,MaritalStatus\n\"13053\"z,28,x\n"},
		{"no header", ""},
	}
	for _, c := range cases {
		g := NewCSVIngester(demoSchema(t))
		_, werr := g.Write([]byte(c.in))
		cerr := g.Close()
		if werr == nil && cerr == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCSVIngesterWriteAfterClose(t *testing.T) {
	g := NewCSVIngester(demoSchema(t))
	if _, err := g.Write([]byte("ZipCode,Age,MaritalStatus\n")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("13053,28,x\n")); err == nil {
		t.Fatal("expected write-after-Close error")
	}
}
