package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestFloat64ColumnBasics(t *testing.T) {
	c := Float64ColumnOf([]float64{3, 1, 2})
	if c.Len() != 3 || c.At(0) != 3 || c.At(1) != 1 || c.At(2) != 2 {
		t.Fatalf("Len=%d values=%v", c.Len(), c.Values())
	}
	if Float64ColumnOf(nil).Len() != 0 {
		t.Fatal("empty column has rows")
	}
}

func TestFloat64ColumnMinMax(t *testing.T) {
	if _, _, ok := Float64ColumnOf(nil).MinMax(); ok {
		t.Error("empty column: ok should be false")
	}
	if _, _, ok := Float64ColumnOf([]float64{math.NaN(), math.NaN()}).MinMax(); ok {
		t.Error("all-NaN column: ok should be false")
	}
	lo, hi, ok := Float64ColumnOf([]float64{2, math.NaN(), -7, 13}).MinMax()
	if !ok || lo != -7 || hi != 13 {
		t.Fatalf("MinMax = %v %v %v, want -7 13 true", lo, hi, ok)
	}
	if v, ok := Float64ColumnOf([]float64{5, 1}).Min(); !ok || v != 1 {
		t.Fatalf("Min = %v %v", v, ok)
	}
	if v, ok := Float64ColumnOf([]float64{5, 1}).Max(); !ok || v != 5 {
		t.Fatalf("Max = %v %v", v, ok)
	}
}

func TestColumnTypedViews(t *testing.T) {
	num := newColumn()
	for _, v := range []float64{1, 2, 1, 3} {
		num.append(NumVal(v))
	}
	fc, ok := num.Float64View()
	if !ok {
		t.Fatal("Float64View on numeric column failed")
	}
	for i, want := range []float64{1, 2, 1, 3} {
		if fc.At(i) != want {
			t.Fatalf("view[%d] = %v, want %v", i, fc.At(i), want)
		}
	}
	// The view is cached.
	if fc2, _ := num.Float64View(); fc2 != fc {
		t.Error("Float64View not cached")
	}

	// Fractional values are float-viewable.
	frac := newColumn()
	frac.append(NumVal(1.5))
	if _, ok := frac.Float64View(); !ok {
		t.Error("Float64View should accept fractions")
	}

	// Non-numeric columns expose no typed view.
	str := newColumn()
	str.append(StrVal("x"))
	if _, ok := str.Float64View(); ok {
		t.Error("Float64View on Str column should fail")
	}
}

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

func TestTableFloat64Column(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "A", Kind: Numeric, Role: QuasiIdentifier},
		Attribute{Name: "B", Kind: Categorical, Role: Sensitive},
	)
	c := NewColumnar(schema)
	for i := 0; i < 10; i++ {
		c.MustAppend(NumVal(float64(i*i)), StrVal("s"))
	}
	tab := c.Table()
	fc, ok := tab.Float64Column(0)
	if !ok || fc.Len() != 10 || fc.At(3) != 9 {
		t.Fatalf("Float64Column: ok=%v", ok)
	}
	if fc2, _ := tab.Float64Column(0); fc2 != fc {
		t.Error("typed column not cached")
	}
	if _, ok := tab.Float64Column(1); ok {
		t.Error("Float64Column on categorical should fail")
	}
	lo, hi, ok := tab.NumericRange(0)
	if !ok || lo != 0 || hi != 81 {
		t.Fatalf("NumericRange = %v %v %v", lo, hi, ok)
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
