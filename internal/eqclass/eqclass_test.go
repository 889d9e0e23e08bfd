package eqclass

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"microdata/internal/dataset"
)

func schema3(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
}

// t3a builds the generalized quasi-identifiers of the paper's T3a together
// with the ground sensitive column, in T1's original row order (1..10).
func t3a(t *testing.T) *dataset.Table {
	t.Helper()
	c := dataset.NewColumnar(schema3(t))
	add := func(zipPrefix string, lo, hi float64, marital string) {
		c.MustAppend(dataset.PrefixVal(zipPrefix, 1), dataset.IntervalVal(lo, hi), dataset.StrVal(marital))
	}
	add("1305", 25, 35, "CF-Spouse")      // 1
	add("1326", 35, 45, "Separated")      // 2
	add("1326", 35, 45, "Never Married")  // 3
	add("1305", 25, 35, "CF-Spouse")      // 4
	add("1325", 45, 55, "Divorced")       // 5
	add("1325", 45, 55, "Spouse Absent")  // 6
	add("1325", 45, 55, "Divorced")       // 7
	add("1305", 25, 35, "Spouse Present") // 8
	add("1326", 35, 45, "Separated")      // 9
	add("1325", 45, 55, "Separated")      // 10
	return c.Table()
}

func TestFromTablePaperT3a(t *testing.T) {
	p, err := FromTable(t3a(t))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 10 || p.NumClasses() != 3 {
		t.Fatalf("N=%d classes=%d", p.N(), p.NumClasses())
	}
	if p.MinSize() != 3 {
		t.Errorf("MinSize = %d, want 3 (T3a is 3-anonymous)", p.MinSize())
	}
	want := []float64{3, 3, 3, 3, 4, 4, 4, 3, 3, 4}
	got := p.SizeVector()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SizeVector = %v, want %v (paper §3)", got, want)
		}
	}
}

// ownCounts reads the paper's §3 sensitive-count vector off histograms:
// element i counts row i's code among its class's entries.
func ownCounts(p *Partition, codes []uint32, h *Histograms) []float64 {
	out := make([]float64, p.N())
	for i := range out {
		sens, hist := h.Class(p.ClassOf[i])
		for e, v := range sens {
			if v == codes[i] {
				out[i] = float64(hist[e])
			}
		}
	}
	return out
}

func TestSensitiveCountVectorPaperT3a(t *testing.T) {
	tab := t3a(t)
	p, err := FromTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	col := tab.ColumnVector(tab.Schema.Index("MaritalStatus"))
	h, err := p.Histograms(col)
	if err != nil {
		t.Fatal(err)
	}
	got := ownCounts(p, col.Codes(), h)
	want := []float64{2, 2, 1, 2, 2, 1, 2, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sensitive-count vector = %v, want %v (paper §3)", got, want)
		}
	}
}

func TestFromTableErrors(t *testing.T) {
	noQI := dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.Sensitive})
	tab := dataset.NewColumnar(noQI).Table()
	if _, err := FromTable(tab); err == nil {
		t.Error("no quasi-identifiers should fail")
	}
	tab2 := dataset.NewColumnar(schema3(t)).Table()
	if _, err := FromColumns(tab2, []int{7}); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := FromColumns(tab2, nil); err == nil {
		t.Error("empty column list should fail")
	}
}

func TestEmptyTablePartition(t *testing.T) {
	p, err := FromTable(dataset.NewColumnar(schema3(t)).Table())
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 0 || p.NumClasses() != 0 || p.MinSize() != 0 {
		t.Errorf("empty partition: %+v", p)
	}
	if len(p.SizeVector()) != 0 {
		t.Error("empty partition should have empty size vector")
	}
}

func TestFromGroups(t *testing.T) {
	p, err := FromGroups(5, [][]int{{4, 0}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClasses() != 2 || p.Size(0) != 2 || p.Size(1) != 3 {
		t.Fatalf("bad partition: %+v", p)
	}
	if p.Classes[0][0] != 0 || p.Classes[0][1] != 4 {
		t.Errorf("group rows should be sorted: %v", p.Classes[0])
	}
	cases := [][][]int{
		{{0, 1}, {1, 2}},   // overlap
		{{0}, {2}},         // gap (row 1 uncovered, and out of n=3 below)
		{{0, 1}, {}},       // empty group
		{{0, 5}},           // out of range
		{{-1, 0, 1, 2}},    // negative
		{{0, 1}, {2}, {2}}, // duplicate across groups
	}
	ns := []int{3, 3, 2, 2, 3, 3}
	for i, g := range cases {
		if _, err := FromGroups(ns[i], g); err == nil {
			t.Errorf("case %d should fail: %v", i, g)
		}
	}
}

func TestValueCountsErrors(t *testing.T) {
	p, err := FromGroups(3, [][]int{{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	short, err := dataset.ColumnFromCodes([]dataset.Value{dataset.StrVal("x")}, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Histograms(short); err == nil {
		t.Error("wrong column length should fail")
	}
}

func TestPartitionInvariantsQuick(t *testing.T) {
	// Random tables: classes cover all rows exactly once, sizes sum to N,
	// size vector entries match class sizes, all tuples in one class share
	// their QI signature.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		c := dataset.NewColumnar(dataset.MustSchema(
			dataset.Attribute{Name: "A", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
			dataset.Attribute{Name: "B", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		))
		letters := []string{"x", "y", "z"}
		for i := 0; i < n; i++ {
			c.MustAppend(
				dataset.StrVal(letters[rng.Intn(len(letters))]),
				dataset.NumVal(float64(rng.Intn(3))),
			)
		}
		tab := c.Table()
		p, err := FromTable(tab)
		if err != nil {
			return false
		}
		covered := make([]bool, n)
		total := 0
		for ci, rows := range p.Classes {
			total += len(rows)
			for _, r := range rows {
				if covered[r] || p.ClassOf[r] != ci {
					return false
				}
				covered[r] = true
				if p.Size(r) != len(rows) {
					return false
				}
				// Same signature within a class.
				if !tab.At(r, 0).Equal(tab.At(rows[0], 0)) || !tab.At(r, 1).Equal(tab.At(rows[0], 1)) {
					return false
				}
			}
		}
		if total != n {
			return false
		}
		sv := p.SizeVector()
		for i := range sv {
			if int(sv[i]) != p.Size(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSensitiveCountsSumToClassSizeQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%30 + 1
		rng := rand.New(rand.NewSource(seed))
		groups := [][]int{}
		perm := rng.Perm(n)
		for i := 0; i < n; {
			sz := rng.Intn(4) + 1
			if i+sz > n {
				sz = n - i
			}
			groups = append(groups, perm[i:i+sz])
			i += sz
		}
		p, err := FromGroups(n, groups)
		if err != nil {
			return false
		}
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Intn(2))
		}
		col, err := dataset.ColumnFromCodes([]dataset.Value{dataset.StrVal("a"), dataset.StrVal("b")}, codes)
		if err != nil {
			return false
		}
		h, err := p.Histograms(col)
		if err != nil || h.Len() != p.NumClasses() {
			return false
		}
		for ci, rows := range p.Classes {
			sens, hist := h.Class(ci)
			sum, seen := 0, map[uint32]bool{}
			for e, v := range sens {
				if hist[e] == 0 || seen[v] {
					return false
				}
				seen[v] = true
				sum += int(hist[e])
			}
			if sum != len(rows) {
				return false
			}
		}
		vec := ownCounts(p, col.Codes(), h)
		for i := range vec {
			if vec[i] < 1 || vec[i] > float64(p.Size(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSignatureHelpers(t *testing.T) {
	row := []dataset.Value{dataset.StrVal("13053"), dataset.NumVal(28), dataset.StarVal()}
	c := dataset.NewColumnar(dataset.MustSchema(
		dataset.Attribute{Name: "A", Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "B", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "C", Role: dataset.QuasiIdentifier},
	))
	c.MustAppend(row...)
	c.MustAppend(row...)
	c.MustAppend(dataset.StrVal("y"), dataset.NumVal(28), dataset.StarVal())
	tab := c.Table()
	var sb strings.Builder
	WriteSignature(&sb, tab, 0, []int{0, 1, 2})
	want := "s:13053\x1fn:28\x1f*\x1f"
	if sb.String() != want {
		t.Fatalf("WriteSignature = %q, want %q", sb.String(), want)
	}
	// Column subsetting and builder reuse.
	sb.Reset()
	WriteSignature(&sb, tab, 0, []int{1})
	if sb.String() != "n:28\x1f" {
		t.Fatalf("subset signature = %q", sb.String())
	}
	// FromColumns groups by exactly this signature: rows with equal
	// signatures land in one class.
	p, err := FromColumns(tab, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClasses() != 2 || p.ClassOf[0] != p.ClassOf[1] || p.ClassOf[0] == p.ClassOf[2] {
		t.Fatalf("partition = %+v", p)
	}
	sig := func(i int) string {
		var sb strings.Builder
		WriteSignature(&sb, tab, i, []int{0, 1})
		return sb.String()
	}
	if sig(0) != sig(1) {
		t.Error("equal rows must share a signature")
	}
	if sig(0) == sig(2) {
		t.Error("distinct rows must not share a signature")
	}
}
