package dataset

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// hostileCSV spells one value several ways: numbers that parse equal or
// differ only in sign, padding, quoted and unquoted forms, and the
// generalized Prefix and Interval syntaxes.
const hostileCSV = "ZipCode,Age,MaritalStatus\n" +
	"13053,28,Married\n" +
	"\"13053\",28.0,\"Married\"\n" +
	" 13053,\" 28\",Married \n" +
	"1305*,-0,\"Sep,arated\"\n" +
	"1305*,0,Sep\n" +
	"\"1305*\",\"(25,35]\",\"quote\"\"inside\"\n" +
	"13053, 28,\"line\nbreak\"\n" +
	"*,\"-0\",*\n" +
	"13053,28,Married\n"

// readAll parses in with both entry points of the one ingester:
// IngestCSVTable and the push ingester fed chunk-byte pieces. Callers
// compare each table against ReferenceReadCSV.
func readAll(t *testing.T, schema *Schema, in string, chunk int) map[string]*Table {
	t.Helper()
	out := map[string]*Table{}
	tab, err := IngestCSVTable(strings.NewReader(in), schema)
	if err != nil {
		t.Fatalf("IngestCSVTable: %v", err)
	}
	out["IngestCSVTable"] = tab
	if tab, err = ingestChunks(t, schema, in, chunk); err != nil {
		t.Fatalf("CSVIngester: %v", err)
	}
	out[fmt.Sprintf("CSVIngester/chunk=%d", chunk)] = tab
	return out
}

func TestReadersMatchReferenceOnHostileText(t *testing.T) {
	want, err := ReferenceReadCSV(strings.NewReader(hostileCSV), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	// 28, 28.0 and " 28" share a code; -0 and 0 do not.
	if got := want.DistinctCount(1); got != 4 {
		t.Fatalf("reference Age dictionary has %d entries, want 4: %v", got, want.cols[1].keys)
	}
	for _, chunk := range []int{1, 3, 7, len(hostileCSV)} {
		for name, got := range readAll(t, demoSchema(t), hostileCSV, chunk) {
			if err := SameEncoding(got, want); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestMemoCutoffMidChunk ingests an all-distinct column that crosses the
// memo cutoff inside a chunk, then repeats early texts of that column,
// which must find their first codes without the memo.
func TestMemoCutoffMidChunk(t *testing.T) {
	const rows, chunk = 6000, 997
	var b strings.Builder
	b.WriteString("ZipCode,Age,MaritalStatus\n")
	cutoffEnd := 0
	for i := 0; i < rows; i++ {
		zip := i
		if i >= 4000 {
			zip = i % 700
		}
		fmt.Fprintf(&b, "z%d,%d,%s\n", zip, 17+i%60, []string{"Married", "\"Married\"", "Single"}[i%3])
		if i == memoCutoff {
			cutoffEnd = b.Len()
		}
	}
	in := b.String()
	// The record that switches the memo off must neither start nor end
	// a chunk.
	start := strings.LastIndexByte(in[:cutoffEnd-1], '\n') + 1
	if start%chunk == 0 || cutoffEnd%chunk == 0 || start/chunk != cutoffEnd/chunk {
		t.Fatalf("cutoff record [%d,%d) is not inside one %d-byte chunk", start, cutoffEnd, chunk)
	}
	g := NewCSVIngester(demoSchema(t))
	for i := 0; i < len(in); i += chunk {
		if _, err := g.Write([]byte(in[i:min(i+chunk, len(in))])); err != nil {
			t.Fatal(err)
		}
		cols := g.cols.cols
		if off := cols[0].memo == nil; off != (i+chunk > start) {
			t.Fatalf("after chunk at %d: ZipCode memo off = %v", i, off)
		}
		if cols[1].memo == nil || cols[2].memo == nil {
			t.Fatalf("after chunk at %d: a repeating column stopped memoizing", i)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceReadCSV(strings.NewReader(in), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := SameEncoding(g.Table(), want); err != nil {
		t.Fatal(err)
	}
	for name, got := range readAll(t, demoSchema(t), in, chunk) {
		if err := SameEncoding(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFailingRecordLeavesBuilderUnchanged checks that a record whose later
// field fails to parse adds nothing, not even the new texts of its earlier
// fields, and that both entry points report the reference's error.
func TestFailingRecordLeavesBuilderUnchanged(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	if err := appendFields(c, [][]byte{[]byte("13053"), []byte("28"), []byte("Married")}, 2); err != nil {
		t.Fatal(err)
	}
	err := appendFields(c, [][]byte{[]byte("99999"), []byte("31"), []byte("")}, 3)
	if err == nil {
		t.Fatal("empty field accepted")
	}
	for j, col := range c.cols {
		if col.Len() != 1 || col.Card() != 1 || len(col.memo) != 1 || len(col.index) != 1 {
			t.Fatalf("column %d changed: %d rows, %d entries, memo %d, index %d",
				j, col.Len(), col.Card(), len(col.memo), len(col.index))
		}
	}
	if c.Len() != 1 {
		t.Fatalf("builder has %d rows, want 1", c.Len())
	}

	for _, in := range []string{
		"ZipCode,Age,MaritalStatus\n13053,28,x\n99999,abc,y\n",
		"ZipCode,Age,MaritalStatus\n13053,28,x\n99999,\"(35,25]\",y\n",
		"ZipCode,Age,MaritalStatus\n13053,28,x\n99999,31,\n",
		"ZipCode,Age,MaritalStatus\n13053,28,x\n?,31,y\n",
	} {
		_, want := ReferenceReadCSV(strings.NewReader(in), demoSchema(t))
		_, got := IngestCSVTable(strings.NewReader(in), demoSchema(t))
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("IngestCSVTable error %v, reference %v", got, want)
		}
		g := NewCSVIngester(demoSchema(t))
		_, gerr := g.Write([]byte(in))
		if gerr == nil || gerr.Error() != want.Error() {
			t.Errorf("CSVIngester error %v, reference %v", gerr, want)
		}
		if g.Len() != 1 || g.cols.cols[0].Card() != 1 {
			t.Errorf("CSVIngester kept part of the failing record: %d rows, %d zips", g.Len(), g.cols.cols[0].Card())
		}
	}
}

func TestTableDropsBuilderMaps(t *testing.T) {
	tab, err := IngestCSVTable(strings.NewReader(hostileCSV), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for j, col := range tab.cols {
		if col.index != nil || col.memo != nil {
			t.Errorf("sealed column %d keeps its builder maps", j)
		}
	}
}

// TestWriteCSVMatchesReferenceOnHostileCells pins WriteCSV's bytes, and
// its \r\n rejection, to the row-loop writer on cells that need quoting
// or sit at the edge of encoding/csv's rules.
func TestWriteCSVMatchesReferenceOnHostileCells(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "Zip,Code", Kind: Categorical, Role: QuasiIdentifier},
		Attribute{Name: "Age", Kind: Numeric, Role: QuasiIdentifier},
		Attribute{Name: " Status", Kind: Categorical, Role: Sensitive},
	)
	cells := []Value{
		StrVal("a,b"), StrVal(`say "hi"`), StrVal(`\.`), StrVal(`\.x`),
		StrVal(" lead"), StrVal("\u00a0nbsp"), StrVal("trail "), StrVal("lone\rcr"),
		StrVal("\r"), StrVal("line\nbreak"), StrVal("\n"), StrVal(""), StrVal("plain"),
		PrefixVal("1305", 1), StarVal(), SetVal("Not Married"), Value{},
	}
	ages := []Value{NumVal(28), NumVal(-0.5), IntervalVal(25, 35), StarVal(), NumVal(1e300)}
	c := NewColumnar(schema)
	for i, v := range cells {
		c.MustAppend(v, ages[i%len(ages)], cells[(i+5)%len(cells)])
	}
	c.MustAppend(cells[0], ages[0], cells[1])
	tab := c.Table()
	var got, want bytes.Buffer
	if err := WriteCSV(&got, tab); err != nil {
		t.Fatal(err)
	}
	if err := ReferenceWriteCSV(&want, tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV:\n%q\nreference:\n%q", got.String(), want.String())
	}

	c = NewColumnar(schema)
	c.MustAppend(StrVal("ok"), NumVal(1), StrVal("crlf\r\nbreak"))
	tab = c.Table()
	got.Reset()
	gerr := WriteCSV(&got, tab)
	werr := ReferenceWriteCSV(&want, tab)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() || got.Len() != 0 {
		t.Fatalf("\\r\\n cell: WriteCSV %v after %d bytes, reference %v", gerr, got.Len(), werr)
	}
}
