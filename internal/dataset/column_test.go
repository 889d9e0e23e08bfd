package dataset

import (
	"fmt"
	"strings"
	"testing"
)

func demoTable(t *testing.T) *Table {
	t.Helper()
	tab, err := IngestCSVTable(strings.NewReader(demoCSV), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestColumnDictionary(t *testing.T) {
	c := newColumn()
	codes := []uint32{
		c.append(StrVal("a")),
		c.append(StrVal("b")),
		c.append(StrVal("a")),
		c.append(StarVal()),
		c.append(StrVal("b")),
	}
	want := []uint32{0, 1, 0, 2, 1}
	for i, cd := range codes {
		if cd != want[i] {
			t.Errorf("code %d = %d, want %d", i, cd, want[i])
		}
	}
	if c.Len() != 5 || c.Card() != 3 {
		t.Fatalf("Len=%d Card=%d", c.Len(), c.Card())
	}
	// Dictionary order is first appearance; values round-trip by Key.
	for i := range codes {
		if got := c.Value(i).Key(); got != c.DictKeys()[c.Code(i)] {
			t.Errorf("row %d: Value key %q != dict key", i, got)
		}
	}
	if c.IsNumeric() {
		t.Error("mixed column claims numeric")
	}
}

func TestColumnNumericDict(t *testing.T) {
	c := newColumn()
	c.append(NumVal(28))
	c.append(NumVal(41))
	c.append(NumVal(28))
	if !c.IsNumeric() {
		t.Fatal("all-Num column should be numeric")
	}
	if c.Card() != 2 {
		t.Fatalf("Card = %d, want 2", c.Card())
	}
	for i, want := range []float64{28, 41, 28} {
		if got := c.Value(i).Float(); got != want {
			t.Errorf("Value(%d) = %v, want %v", i, got, want)
		}
	}
	c.append(StarVal())
	if c.IsNumeric() {
		t.Error("column with a star should not be numeric")
	}
}

func TestColumnValuesView(t *testing.T) {
	c := newColumn()
	c.append(StrVal("x"))
	c.append(StrVal("y"))
	v1 := c.Values()
	if len(v1) != 2 || v1[1].Text() != "y" {
		t.Fatalf("view = %v", v1)
	}
	if v2 := c.Values(); &v2[0] != &v1[0] {
		t.Error("view not cached")
	}
}

func TestTableColumnarBacking(t *testing.T) {
	tab := demoTable(t)
	// Cell-level agreement between At and the dictionary-encoded columns.
	for j := 0; j < tab.Schema.Len(); j++ {
		col := tab.ColumnVector(j)
		if col.Len() != tab.Len() {
			t.Fatalf("column %d has %d rows, table %d", j, col.Len(), tab.Len())
		}
		for i := 0; i < tab.Len(); i++ {
			if got, want := col.DictKeys()[col.Code(i)], tab.At(i, j).Key(); got != want {
				t.Errorf("cell (%d,%d): %q != %q", i, j, got, want)
			}
		}
	}
}

func TestAppendAfterTableFails(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	c.MustAppend(StrVal("13053"), NumVal(28), StrVal("CF-Spouse"))
	tab := c.Table()
	if err := c.AppendRow([]Value{StrVal("13068"), NumVal(29), StrVal("Divorced")}); err == nil {
		t.Fatal("AppendRow after Table succeeded")
	}
	if err := c.AppendTable(tab); err == nil {
		t.Fatal("AppendTable after Table succeeded")
	}
	c.Grow(10)
	if tab.Len() != 1 || c.rows != 1 || tab.ColumnVector(0).Len() != 1 {
		t.Fatalf("sealed table changed: Len=%d", tab.Len())
	}
	if c.Table() != tab {
		t.Error("Table is not idempotent")
	}
}

func TestTableColumnSharesBacking(t *testing.T) {
	tab := demoTable(t)
	col := tab.Column(1)
	if len(col) != tab.Len() {
		t.Fatalf("column length %d", len(col))
	}
	for i := range col {
		if !col[i].Equal(tab.At(i, 1)) {
			t.Errorf("row %d: %v != %v", i, col[i], tab.At(i, 1))
		}
	}
	if again := tab.Column(1); &again[0] != &col[0] {
		t.Error("Column is not shared")
	}
}

func TestColumnarTableRoundTrip(t *testing.T) {
	schema := demoSchema(t)
	c := NewColumnar(schema)
	c.MustAppend(StrVal("13053"), NumVal(28), StrVal("CF-Spouse"))
	c.MustAppend(PrefixVal("1305", 1), IntervalVal(25, 35), StarVal())
	if err := c.AppendRow([]Value{StrVal("x")}); err == nil {
		t.Error("short row should error")
	}
	tab := c.Table()
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if c.Table() != tab {
		t.Error("Table should return the one sealed table")
	}
	if got := tab.At(1, 1); !got.Equal(IntervalVal(25, 35)) {
		t.Errorf("cell (1,1) = %v", got)
	}
}

func TestSchemaIndexMemo(t *testing.T) {
	s := demoSchema(t)
	if got := s.Index("Age"); got != 1 {
		t.Fatalf("Index(Age) = %d", got)
	}
	if got := s.Index("Nope"); got != -1 {
		t.Fatalf("Index(Nope) = %d", got)
	}
	if got := s.Index("MaritalStatus"); got != 2 {
		t.Fatalf("Index(MaritalStatus) = %d", got)
	}
}

func TestDistinctCountColumnarFastPath(t *testing.T) {
	tab := demoTable(t)
	seen := map[string]bool{}
	for i := 0; i < tab.Len(); i++ {
		seen[tab.At(i, 0).Key()] = true
	}
	if got := tab.ColumnVector(0).Card(); got != len(seen) {
		t.Fatalf("Card %d != %d distinct keys", got, len(seen))
	}
}

func TestColumnFromCodes(t *testing.T) {
	// Duplicate keys merge, unused entries drop, and codes renumber in
	// first-appearance row order.
	dict := []Value{StrVal("a"), StrVal("b"), StrVal("a"), StarVal(), NumVal(1)}
	c, err := ColumnFromCodes(dict, []uint32{3, 2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := newColumn()
	for _, v := range []Value{StarVal(), StrVal("a"), StrVal("b"), StrVal("a"), StarVal()} {
		want.append(v)
	}
	if c.Card() != want.Card() || c.Len() != want.Len() {
		t.Fatalf("Card=%d Len=%d, want %d %d", c.Card(), c.Len(), want.Card(), want.Len())
	}
	for i := range want.Codes() {
		if c.Code(i) != want.Code(i) {
			t.Errorf("code %d = %d, want %d", i, c.Code(i), want.Code(i))
		}
	}
	for d := range want.Dict() {
		if c.DictKeys()[d] != want.DictKeys()[d] {
			t.Errorf("dict %d = %q, want %q", d, c.DictKeys()[d], want.DictKeys()[d])
		}
	}
	num, err := ColumnFromCodes([]Value{NumVal(2), StarVal()}, []uint32{0, 0})
	if err != nil || !num.IsNumeric() {
		t.Fatalf("unused non-numeric entry should drop: numeric=%v err=%v", num.IsNumeric(), err)
	}
	if _, err := ColumnFromCodes(dict, []uint32{0, 5}); err == nil {
		t.Error("out-of-range code accepted")
	}
}

func TestAppendTable(t *testing.T) {
	a := demoTable(t)
	c := NewColumnar(a.Schema)
	c.MustAppend(StrVal("99999"), NumVal(1), StrVal("Widowed"))
	if err := c.AppendTable(a); err != nil {
		t.Fatal(err)
	}
	want := NewColumnar(a.Schema)
	want.MustAppend(StrVal("99999"), NumVal(1), StrVal("Widowed"))
	for i := 0; i < a.Len(); i++ {
		row := make([]Value, a.Schema.Len())
		for j := range row {
			row[j] = a.At(i, j)
		}
		want.MustAppend(row...)
	}
	got, w := c.Table(), want.Table()
	for j := 0; j < w.Schema.Len(); j++ {
		gc, wc := got.ColumnVector(j), w.ColumnVector(j)
		if fmt.Sprint(gc.Codes()) != fmt.Sprint(wc.Codes()) || fmt.Sprint(gc.DictKeys()) != fmt.Sprint(wc.DictKeys()) {
			t.Errorf("column %d differs from row-by-row appends", j)
		}
	}
	if err := NewColumnar(MustSchema(Attribute{Name: "X"})).AppendTable(a); err == nil {
		t.Error("width mismatch accepted")
	}
}
