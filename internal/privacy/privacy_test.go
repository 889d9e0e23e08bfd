package privacy

import (
	"math"
	"math/rand"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// Paper fixtures in T1's row order (0-based).
func sensitiveT1() []dataset.Value {
	names := []string{
		"CF-Spouse", "Separated", "Never Married", "CF-Spouse", "Divorced",
		"Spouse Absent", "Divorced", "Spouse Present", "Separated", "Separated",
	}
	col := make([]dataset.Value, len(names))
	for i, n := range names {
		col[i] = dataset.StrVal(n)
	}
	return col
}

func partT3a(t *testing.T) *eqclass.Partition {
	t.Helper()
	p, err := eqclass.FromGroups(10, [][]int{{0, 3, 7}, {1, 2, 8}, {4, 5, 6, 9}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func partT3b(t *testing.T) *eqclass.Partition {
	t.Helper()
	p, err := eqclass.FromGroups(10, [][]int{{0, 3, 7}, {1, 2, 4, 5, 6, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func partT4(t *testing.T) *eqclass.Partition {
	t.Helper()
	p, err := eqclass.FromGroups(10, [][]int{{0, 2, 3, 7}, {1, 4, 5, 6, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// hists encodes the values as a column and tallies p's class histograms
// over it.
func hists(p *eqclass.Partition, vals []dataset.Value) (*eqclass.Histograms, *dataset.Column, error) {
	codes := make([]uint32, len(vals))
	for i := range codes {
		codes[i] = uint32(i)
	}
	col, err := dataset.ColumnFromCodes(vals, codes)
	if err != nil {
		return nil, nil, err
	}
	h, err := p.Histograms(col)
	return h, col, err
}

// mustHists is hists failing the test on error.
func mustHists(t *testing.T, p *eqclass.Partition, vals []dataset.Value) (*eqclass.Histograms, *dataset.Column) {
	t.Helper()
	h, col, err := hists(p, vals)
	if err != nil {
		t.Fatal(err)
	}
	return h, col
}

func TestKAnonymityPaperTables(t *testing.T) {
	if k := KAnonymity(partT3a(t)); k != 3 {
		t.Errorf("k(T3a) = %d, want 3", k)
	}
	if k := KAnonymity(partT3b(t)); k != 3 {
		t.Errorf("k(T3b) = %d, want 3", k)
	}
	if k := KAnonymity(partT4(t)); k != 4 {
		t.Errorf("k(T4) = %d, want 4", k)
	}
	for _, tc := range []struct {
		p    *eqclass.Partition
		k    int
		want bool
	}{
		{partT3a(t), 3, true},
		{partT3a(t), 4, false},
		{partT4(t), 4, true},
	} {
		got, err := IsKAnonymous(tc.p, tc.k)
		if err != nil || got != tc.want {
			t.Errorf("IsKAnonymous(k=%d) = %v, %v; want %v", tc.k, got, err, tc.want)
		}
	}
	if _, err := IsKAnonymous(partT3a(t), 0); err == nil {
		t.Error("k=0 should fail")
	}
	empty, _ := eqclass.FromGroups(0, nil)
	if ok, _ := IsKAnonymous(empty, 2); ok {
		t.Error("empty partition is not k-anonymous")
	}
}

func TestClassSizeVectorFigure1(t *testing.T) {
	want := map[string][]float64{
		"T3a": {3, 3, 3, 3, 4, 4, 4, 3, 3, 4},
		"T3b": {3, 7, 7, 3, 7, 7, 7, 3, 7, 7},
		"T4":  {4, 6, 4, 4, 6, 6, 6, 4, 6, 6},
	}
	parts := map[string]*eqclass.Partition{"T3a": partT3a(t), "T3b": partT3b(t), "T4": partT4(t)}
	for name, w := range want {
		got := ClassSizeVector(parts[name])
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s class-size vector = %v, want %v (Figure 1)", name, got, w)
			}
		}
	}
}

func TestDistinctLDiversity(t *testing.T) {
	h, _ := mustHists(t, partT3a(t), sensitiveT1())
	if l := DistinctLDiversity(h); l != 2 {
		t.Errorf("distinct ℓ(T3a) = %d; want 2", l)
	}
	if _, _, err := hists(partT3a(t), sensitiveT1()[:3]); err == nil {
		t.Error("short column should fail")
	}
	empty, _ := eqclass.FromGroups(0, nil)
	eh, _ := mustHists(t, empty, nil)
	if l := DistinctLDiversity(eh); l != 0 {
		t.Errorf("empty distinct ℓ = %d", l)
	}
}

func TestSensitiveCountVectorPaper(t *testing.T) {
	got, err := SensitiveCountVector(partT3a(t), sensitiveT1())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 2, 1, 2, 2, 1, 2, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sensitive-count vector = %v, want %v (paper §3)", got, want)
		}
	}
}

func TestEntropyLDiversity(t *testing.T) {
	// A class with uniform sensitive values over 2 has entropy ℓ = 2.
	p, _ := eqclass.FromGroups(4, [][]int{{0, 1}, {2, 3}})
	col := []dataset.Value{
		dataset.StrVal("a"), dataset.StrVal("b"),
		dataset.StrVal("c"), dataset.StrVal("c"),
	}
	h, _ := mustHists(t, p, col)
	l, err := EntropyLDiversity(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1) > 1e-9 {
		t.Errorf("entropy ℓ = %v, want 1 (degenerate class {c,c})", l)
	}
	p2, _ := eqclass.FromGroups(4, [][]int{{0, 1}, {2, 3}})
	col2 := []dataset.Value{
		dataset.StrVal("a"), dataset.StrVal("b"),
		dataset.StrVal("c"), dataset.StrVal("d"),
	}
	h2, _ := mustHists(t, p2, col2)
	l2, _ := EntropyLDiversity(h2)
	if math.Abs(l2-2) > 1e-9 {
		t.Errorf("entropy ℓ = %v, want 2", l2)
	}
	empty, _ := eqclass.FromGroups(0, nil)
	eh, _ := mustHists(t, empty, nil)
	if _, err := EntropyLDiversity(eh); err == nil {
		t.Error("empty partition should fail")
	}
	// Histograms are shared: the entropy must not reorder them.
	before := append([]uint32(nil), h2.Hist...)
	EntropyLDiversity(h2)
	for i := range before {
		if h2.Hist[i] != before[i] {
			t.Fatalf("EntropyLDiversity reordered the histograms: %v, was %v", h2.Hist, before)
		}
	}
}

// TestClassEntropyLDeterministic pins the fixed summation order: summing
// the entropy terms in histogram order moved the last bits of entropy ℓ
// with the order the counts were gathered in, and with them the property
// vectors the comparators rank.
func TestClassEntropyLDeterministic(t *testing.T) {
	counts := make([]int, 40)
	for i := range counts {
		counts[i] = 1 + (i*7919)%97
	}
	want := EntropyL(append([]int(nil), counts...))
	if want <= 1 || want > 40 {
		t.Fatalf("entropy ℓ = %v, want within (1, 40]", want)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		rng.Shuffle(len(counts), func(a, b int) { counts[a], counts[b] = counts[b], counts[a] })
		if got := EntropyL(append([]int(nil), counts...)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("order %d: entropy ℓ = %v, first order gave %v", i, got, want)
		}
	}
}

func TestRecursiveCLDiversity(t *testing.T) {
	// Frequencies 3,2,1 in one class: r1=3, l=2 tail = 2+1 = 3.
	// c=1: 3 < 3 false. c=1.5: 3 < 4.5 true.
	p, _ := eqclass.FromGroups(6, [][]int{{0, 1, 2, 3, 4, 5}})
	col := []dataset.Value{
		dataset.StrVal("a"), dataset.StrVal("a"), dataset.StrVal("a"),
		dataset.StrVal("b"), dataset.StrVal("b"), dataset.StrVal("c"),
	}
	h, _ := mustHists(t, p, col)
	_, hist := h.Class(0)
	if RecursiveCL(Counts(nil, hist), 1.0, 2) {
		t.Error("(1,2)-diversity holds; want false")
	}
	if !RecursiveCL(Counts(nil, hist), 1.5, 2) {
		t.Error("(1.5,2)-diversity fails; want true")
	}
	// l beyond distinct count fails.
	if RecursiveCL(Counts(nil, hist), 10, 4) {
		t.Error("(10,4)-diversity holds; want false")
	}
}

func TestDistinctCountVector(t *testing.T) {
	h, _ := mustHists(t, partT3a(t), sensitiveT1())
	got, err := DistinctCountVector(partT3a(t), h)
	if err != nil {
		t.Fatal(err)
	}
	// Classes: {0,3,7}: 2 distinct; {1,2,8}: 2; {4,5,6,9}: 3.
	want := []float64{2, 2, 2, 2, 3, 3, 3, 2, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct-count vector = %v, want %v", got, want)
		}
	}
	if _, err := DistinctCountVector(partT3a(t), &eqclass.Histograms{}); err == nil {
		t.Error("histograms of another partition should fail")
	}
}

func TestReidentificationVectorPaperSection1(t *testing.T) {
	// §1: a tuple's re-identification probability is 1 over its class
	// size. In T3b tuples {2,3,5,6,7,9,10} have breach probability 1/7, the
	// rest 1/3.
	sizes := ClassSizeVector(partT3b(t))
	for i, want := range []float64{1.0 / 3, 1.0 / 7, 1.0 / 7, 1.0 / 3, 1.0 / 7, 1.0 / 7, 1.0 / 7, 1.0 / 3, 1.0 / 7, 1.0 / 7} {
		if got := 1 / sizes[i]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("tuple %d: breach probability %v, want %v", i, got, want)
		}
	}
	// §1: every tuple of a 3-anonymous table has at most 1/3 breach prob.
	for _, size := range ClassSizeVector(partT3a(t)) {
		if v := 1 / size; v > 1.0/3+1e-12 {
			t.Errorf("T3a breach probability %v exceeds 1/3", v)
		}
	}
}

func TestBreachProbabilityVector(t *testing.T) {
	h, col := mustHists(t, partT3a(t), sensitiveT1())
	got, err := BreachProbabilityVector(partT3a(t), col, h)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple 0 (CF-Spouse in class {0,3,7} with counts CF-Spouse:2): 2/3.
	if math.Abs(got[0]-2.0/3) > 1e-12 {
		t.Errorf("breach[0] = %v, want 2/3", got[0])
	}
	// Tuple 7 (Spouse Present, count 1 in class of 3): 1/3.
	if math.Abs(got[7]-1.0/3) > 1e-12 {
		t.Errorf("breach[7] = %v, want 1/3", got[7])
	}
	_, short := mustHists(t, partT3b(t), sensitiveT1())
	if _, err := BreachProbabilityVector(partT3a(t), short, &eqclass.Histograms{}); err == nil {
		t.Error("histograms of another partition should fail")
	}
}
