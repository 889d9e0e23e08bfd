// Cross-validation of the vectorized grouping path against the pinned
// signature-string reference: FromColumns/FromCodes must produce partitions
// element-identical (same classes, same canonical ordering) to signing
// every row with WriteSignature and grouping via FromSignatures, across the
// census suite, the paper's tables and randomized value mixes.
package eqclass_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/paperdata"
)

// referencePartition groups via the pinned signature-string path.
func referencePartition(t *testing.T, tab *dataset.Table, cols []int) *eqclass.Partition {
	t.Helper()
	sigs := make([]string, tab.Len())
	var sb strings.Builder
	for i := range sigs {
		sb.Reset()
		eqclass.WriteSignature(&sb, tab, i, cols)
		sigs[i] = sb.String()
	}
	p, err := eqclass.FromSignatures(sigs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// samePartition asserts element-identity: equal ClassOf and equal Classes
// in the same canonical order with the same row order inside each class.
func samePartition(t *testing.T, label string, got, want *eqclass.Partition) {
	t.Helper()
	if got.N() != want.N() || got.NumClasses() != want.NumClasses() {
		t.Fatalf("%s: N=%d/%d classes=%d/%d", label, got.N(), want.N(), got.NumClasses(), want.NumClasses())
	}
	for i := range want.ClassOf {
		if got.ClassOf[i] != want.ClassOf[i] {
			t.Fatalf("%s: ClassOf[%d] = %d, want %d", label, i, got.ClassOf[i], want.ClassOf[i])
		}
	}
	for ci := range want.Classes {
		if len(got.Classes[ci]) != len(want.Classes[ci]) {
			t.Fatalf("%s: class %d size %d, want %d", label, ci, len(got.Classes[ci]), len(want.Classes[ci]))
		}
		for k := range want.Classes[ci] {
			if got.Classes[ci][k] != want.Classes[ci][k] {
				t.Fatalf("%s: class %d row %d = %d, want %d", label, ci, k, got.Classes[ci][k], want.Classes[ci][k])
			}
		}
	}
}

func crossValidate(t *testing.T, label string, tab *dataset.Table, cols []int) {
	t.Helper()
	got, err := eqclass.FromColumns(tab, cols)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	samePartition(t, label, got, referencePartition(t, tab, cols))
}

func TestFromColumnsMatchesSignaturesPaperTables(t *testing.T) {
	for _, c := range []struct {
		name string
		tab  *dataset.Table
	}{
		{"T1", paperdata.T1()},
		{"T3a", paperdata.T3a()},
		{"T3b", paperdata.T3b()},
		{"T4", paperdata.T4()},
	} {
		qi := c.tab.Schema.QuasiIdentifiers()
		crossValidate(t, c.name, c.tab, qi)
		// All columns, including the sensitive one.
		all := make([]int, c.tab.Schema.Len())
		for j := range all {
			all[j] = j
		}
		crossValidate(t, c.name+"/all-cols", c.tab, all)
	}
}

func TestFromColumnsMatchesSignaturesCensusSweep(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hs := generator.Hierarchies()
	qi := tab.Schema.QuasiIdentifiers()
	for _, node := range [][]int{
		{0, 0, 0, 0},
		{1, 1, 0, 0},
		{2, 3, 1, 1},
		{3, 4, 2, 1},
		{5, 5, 2, 2}, // full suppression
	} {
		anon, err := hierarchy.GeneralizeTable(tab, hs, node)
		if err != nil {
			t.Fatal(err)
		}
		crossValidate(t, fmt.Sprintf("node %v", node), anon, qi)
		// Tuple suppression on top of generalization, as the algorithms
		// produce: suppress every row of the smallest classes.
		p, err := eqclass.FromColumns(anon, qi)
		if err != nil {
			t.Fatal(err)
		}
		var bad []int
		for _, rows := range p.Classes {
			if len(rows) < 5 {
				bad = append(bad, rows...)
			}
		}
		if anon, err = hierarchy.SuppressRows(anon, bad); err != nil {
			t.Fatal(err)
		}
		crossValidate(t, fmt.Sprintf("node %v suppressed", node), anon, qi)
	}
}

// TestFromColumnsMatchesSignaturesRandomized exercises every value kind —
// Num (incl. ±0 and extreme magnitudes), Str, Interval, Prefix, Set, Star
// and Missing — in random mixtures.
func TestFromColumnsMatchesSignaturesRandomized(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "A", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "B", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "C", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	pool := []dataset.Value{
		dataset.NumVal(0), dataset.NumVal(-0.0), dataset.NumVal(1), dataset.NumVal(-1),
		dataset.NumVal(1e300), dataset.NumVal(28),
		dataset.StrVal("x"), dataset.StrVal("y"), dataset.StrVal(""),
		dataset.IntervalVal(25, 35), dataset.IntervalVal(25, 45), dataset.IntervalVal(0, 0),
		dataset.PrefixVal("1305", 1), dataset.PrefixVal("1305", 2),
		dataset.SetVal("Married"), dataset.SetVal("x"),
		dataset.StarVal(), {},
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(400)
		c := dataset.NewColumnar(schema)
		for i := 0; i < n; i++ {
			c.MustAppend(
				pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))],
			)
		}
		crossValidate(t, fmt.Sprintf("trial %d", trial), c.Table(), []int{0, 1, 2})
	}
}

// TestFromCodesHashPath forces the combine pass over the radixMax threshold
// so the map-based refinement runs, and pins it to the reference.
func TestFromCodesHashPath(t *testing.T) {
	const n, card = 5000, 5000
	rng := rand.New(rand.NewSource(42))
	cols := [][]uint32{make([]uint32, n), make([]uint32, n)}
	for i := 0; i < n; i++ {
		cols[0][i] = uint32(rng.Intn(card))
		cols[1][i] = uint32(rng.Intn(card))
	}
	got, err := eqclass.FromCodes(cols, []int{card, card}) // card² ≫ radix budget
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]string, n)
	for i := 0; i < n; i++ {
		sigs[i] = fmt.Sprintf("%d\x1f%d\x1f", cols[0][i], cols[1][i])
	}
	want, err := eqclass.FromSignatures(sigs)
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, "hash path", got, want)

	// Unknown cardinalities (cards=0) must scan for the max and agree.
	got0, err := eqclass.FromCodes(cols, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	samePartition(t, "cards=0", got0, want)
}

func TestFromCodesErrors(t *testing.T) {
	if _, err := eqclass.FromCodes(nil, nil); err == nil {
		t.Error("no columns should fail")
	}
	if _, err := eqclass.FromCodes([][]uint32{{0}, {0, 1}}, []int{1, 2}); err == nil {
		t.Error("ragged vectors should fail")
	}
	if _, err := eqclass.FromCodes([][]uint32{{}}, []int{1}); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := eqclass.FromCodes([][]uint32{{5}}, []int{2}); err == nil {
		t.Error("code exceeding cardinality should fail")
	}
	// 3000×3000 groups overflow the radix table, so the second column
	// takes the hash path, which must check cardinality too.
	a, b := make([]uint32, 3000), make([]uint32, 3000)
	for i := range a {
		a[i], b[i] = uint32(i), uint32(i)
	}
	b[1234] = 5000
	if _, err := eqclass.FromCodes([][]uint32{a, b}, []int{3000, 3000}); err == nil {
		t.Error("code exceeding cardinality on the hash path should fail")
	}
}

// TestHistogramsMatchValueCounts pins the code histograms of a census
// release against a per-row tally keyed by Value.Key.
func TestHistogramsMatchValueCounts(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eqclass.FromTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	si := tab.Schema.SensitiveIndex()
	vals := tab.Column(si)
	col := tab.ColumnVector(si)
	h, err := p.Histograms(col)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != p.NumClasses() {
		t.Fatalf("%d histograms for %d classes", h.Len(), p.NumClasses())
	}
	for ci, rows := range p.Classes {
		want := map[string]int{}
		for _, r := range rows {
			want[vals[r].Key()]++
		}
		sens, hist := h.Class(ci)
		if len(sens) != len(want) {
			t.Fatalf("class %d: %d entries, want %d", ci, len(sens), len(want))
		}
		for e, v := range sens {
			if k := col.DictKeys()[v]; int(hist[e]) != want[k] {
				t.Fatalf("class %d key %q: %d, want %d", ci, k, hist[e], want[k])
			}
		}
	}
}

// benchTable returns a generalized census table of n rows, the shape the
// engine and measure paths group over.
func benchTable(b *testing.B, n int) *dataset.Table {
	b.Helper()
	tab, err := generator.Generate(generator.Config{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	anon, err := hierarchy.GeneralizeTable(tab, generator.Hierarchies(), []int{1, 2, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	return anon
}

func BenchmarkGroupBySignatures(b *testing.B) {
	tab := benchTable(b, 10000)
	qi := tab.Schema.QuasiIdentifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs := make([]string, tab.Len())
		var sb strings.Builder
		for r := range sigs {
			sb.Reset()
			eqclass.WriteSignature(&sb, tab, r, qi)
			sigs[r] = sb.String()
		}
		if _, err := eqclass.FromSignatures(sigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByCodes(b *testing.B) {
	tab := benchTable(b, 10000)
	qi := tab.Schema.QuasiIdentifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eqclass.FromColumns(tab, qi); err != nil {
			b.Fatal(err)
		}
	}
}
