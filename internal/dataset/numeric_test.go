package dataset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestColumnGrow(t *testing.T) {
	c := newColumn()
	c.append(NumVal(1))
	c.grow(100)
	if c.Len() != 1 || cap(c.Codes()) < 101 {
		t.Fatalf("Grow: len=%d cap=%d", c.Len(), cap(c.Codes()))
	}
	if c.Value(0).Float() != 1 {
		t.Fatal("Grow corrupted contents")
	}

	schema := demoSchema(t)
	cols := NewColumnar(schema)
	cols.Grow(50)
	for j := 0; j < schema.Len(); j++ {
		if cap(cols.cols[j].Codes()) < 50 {
			t.Fatalf("Columnar.Grow: col %d cap=%d", j, cap(cols.cols[j].Codes()))
		}
	}
}

// TestIngestCSVMatchesReadCSV pins the chunked reader IngestCSVTable to
// the encoding/csv reference on a CSV large enough to span several read
// buffers, plus the quote-hostile sample.
func TestIngestCSVMatchesReadCSV(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("ZipCode,Age,MaritalStatus\n")
	rng := rand.New(rand.NewSource(17))
	statuses := []string{"Married", "Separated", "CF-Spouse", "Never-married"}
	for i := 0; i < 40000; i++ { // ~1 MiB, several 256 KiB ingest buffers
		fmt.Fprintf(&sb, "%05d,%d,%s\n", 10000+rng.Intn(90000), rng.Intn(90), statuses[rng.Intn(len(statuses))])
	}
	for name, in := range map[string]string{"large": sb.String(), "quoted": quotedCSV} {
		want, err := ReferenceReadCSV(strings.NewReader(in), demoSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		got, err := IngestCSVTable(strings.NewReader(in), demoSchema(t))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len %d != %d", name, got.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			for j := 0; j < want.Schema.Len(); j++ {
				if g, w := got.At(i, j).Key(), want.At(i, j).Key(); g != w {
					t.Fatalf("%s: cell (%d,%d): %q != %q", name, i, j, g, w)
				}
			}
		}
	}

	// Errors propagate from the parser through the pipeline.
	if _, err := IngestCSVTable(strings.NewReader("Zip,Age,MaritalStatus\nx\n"), demoSchema(t)); err == nil {
		t.Error("bad header should fail")
	}
}
