package privacy

import (
	"math"
	"math/rand"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
)

// tclose is TCloseness of p's classes over the values.
func tclose(t *testing.T, p *eqclass.Partition, vals []dataset.Value, ordered bool) (float64, error) {
	t.Helper()
	h, col := mustHists(t, p, vals)
	return TCloseness(h, NewSupport(col, ordered))
}

func TestTClosenessNominal(t *testing.T) {
	// Global: a,a,b,b -> (0.5, 0.5). Class {0,1} = (1,0): TV distance 0.5.
	p, _ := eqclass.FromGroups(4, [][]int{{0, 1}, {2, 3}})
	col := []dataset.Value{
		dataset.StrVal("a"), dataset.StrVal("a"),
		dataset.StrVal("b"), dataset.StrVal("b"),
	}
	got, err := tclose(t, p, col, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("t = %v, want 0.5", got)
	}
}

func TestTClosenessPerfectPartition(t *testing.T) {
	// One class = whole table: t = 0.
	p, _ := eqclass.FromGroups(3, [][]int{{0, 1, 2}})
	col := []dataset.Value{dataset.StrVal("a"), dataset.StrVal("b"), dataset.StrVal("c")}
	got, err := tclose(t, p, col, false)
	if err != nil || got != 0 {
		t.Errorf("t = %v, %v; want 0", got, err)
	}
}

func TestTClosenessOrderedNumeric(t *testing.T) {
	// Li et al.'s ordered EMD: values 1..4 uniformly global; class {0,1}
	// holds {1,2}. p-q = (.5-.25, .5-.25, -.25, -.25) cumulative:
	// .25, .5, .25, 0 -> sum 1.0 / (m-1)=3 -> 1/3.
	p, _ := eqclass.FromGroups(4, [][]int{{0, 1}, {2, 3}})
	col := []dataset.Value{
		dataset.NumVal(1), dataset.NumVal(2), dataset.NumVal(3), dataset.NumVal(4),
	}
	got, err := tclose(t, p, col, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ordered t = %v, want 1/3", got)
	}
	// The nominal metric sees the same class as TV distance 0.5.
	gotNom, _ := tclose(t, p, col, false)
	if math.Abs(gotNom-0.5) > 1e-12 {
		t.Errorf("nominal t = %v, want 0.5", gotNom)
	}
}

func TestTClosenessErrors(t *testing.T) {
	p, _ := eqclass.FromGroups(2, [][]int{{0, 1}})
	col := []dataset.Value{dataset.StrVal("a"), dataset.StrVal("b")}
	if _, _, err := hists(p, col[:1]); err == nil {
		t.Error("short column should fail")
	}
	empty, _ := eqclass.FromGroups(0, nil)
	if _, err := tclose(t, empty, nil, false); err == nil {
		t.Error("empty partition should fail")
	}
}

func TestTClosenessVector(t *testing.T) {
	p, _ := eqclass.FromGroups(4, [][]int{{0, 1}, {2, 3}})
	col := []dataset.Value{
		dataset.StrVal("a"), dataset.StrVal("a"),
		dataset.StrVal("a"), dataset.StrVal("b"),
	}
	h, c := mustHists(t, p, col)
	vec, err := TClosenessVector(p, h, NewSupport(c, false))
	if err != nil {
		t.Fatal(err)
	}
	// Global (a:0.75, b:0.25). Class {0,1}=(1,0): TV=0.25. Class {2,3}=(0.5,0.5): TV=0.25.
	for i, want := range []float64{0.25, 0.25, 0.25, 0.25} {
		if math.Abs(vec[i]-want) > 1e-12 {
			t.Fatalf("t-closeness vector = %v", vec)
		}
	}
	if _, err := TClosenessVector(p, &eqclass.Histograms{}, NewSupport(c, false)); err == nil {
		t.Error("histograms of another partition should fail")
	}
}

// EMD properties: in [0,1], zero iff identical distribution, symmetric.
func TestTClosenessBoundsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	letters := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12) + 2
		col := make([]dataset.Value, n)
		for i := range col {
			col[i] = dataset.StrVal(letters[rng.Intn(len(letters))])
		}
		groups := [][]int{}
		perm := rng.Perm(n)
		for i := 0; i < n; {
			sz := rng.Intn(3) + 1
			if i+sz > n {
				sz = n - i
			}
			groups = append(groups, perm[i:i+sz])
			i += sz
		}
		p, err := eqclass.FromGroups(n, groups)
		if err != nil {
			t.Fatal(err)
		}
		for _, ordered := range []bool{false, true} {
			got, err := tclose(t, p, col, ordered)
			if err != nil {
				t.Fatal(err)
			}
			if got < 0 || got > 1+1e-12 {
				t.Fatalf("t out of range: %v", got)
			}
		}
		// Single whole-table class is always 0.
		whole, _ := eqclass.FromGroups(n, [][]int{allRows(n)})
		got, _ := tclose(t, whole, col, false)
		if got != 0 {
			t.Fatalf("whole-table t = %v", got)
		}
	}
}

func allRows(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func maritalTax(t *testing.T) *hierarchy.Taxonomy {
	t.Helper()
	return hierarchy.MustTaxonomy("MaritalStatus", hierarchy.N("*",
		hierarchy.N("Married", hierarchy.N("CF-Spouse"), hierarchy.N("Spouse Present")),
		hierarchy.N("Not Married", hierarchy.N("Separated"), hierarchy.N("Never Married"), hierarchy.N("Divorced"), hierarchy.N("Spouse Absent")),
	))
}

func TestPersonalizedBreachVector(t *testing.T) {
	tax := maritalTax(t)
	col := sensitiveT1()
	part := partT3a(t)
	guards := make([]GuardingNode, 10)
	for i := range guards {
		guards[i] = GuardingNode{Label: "*", Tolerance: 1}
	}
	// Tuple 0 guards "Married": class {0,3,7} sensitive values CF-Spouse,
	// CF-Spouse, Spouse Present are ALL under Married -> breach prob 1.
	guards[0] = GuardingNode{Label: "Married", Tolerance: 0.5}
	probs, err := PersonalizedBreachVector(part, col, tax, guards)
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 1 {
		t.Errorf("breach[0] = %v, want 1", probs[0])
	}
	ok, violated, err := PersonalizedSatisfied(part, col, tax, guards)
	if err != nil {
		t.Fatal(err)
	}
	if ok || len(violated) != 1 || violated[0] != 0 {
		t.Errorf("expected tuple 0 violation, got ok=%v violated=%v", ok, violated)
	}
	// Guarding the leaf value: tuple 2 (Never Married, unique in class
	// {1,2,8}) has breach prob 1/3 <= 0.5 tolerance.
	guards[0] = GuardingNode{Label: "*", Tolerance: 1}
	guards[2] = GuardingNode{Label: "Never Married", Tolerance: 0.5}
	ok, violated, err = PersonalizedSatisfied(part, col, tax, guards)
	if err != nil || !ok {
		t.Errorf("leaf guard should be satisfied: ok=%v violated=%v err=%v", ok, violated, err)
	}
	// Bias point (§2): the same guard for tuple 5 in T3b's big class gives
	// a different probability — personalized privacy is biased too.
	probs3b, err := PersonalizedBreachVector(partT3b(t), col, tax, guards)
	if err != nil {
		t.Fatal(err)
	}
	if probs3b[2] >= probs[2] {
		t.Errorf("T3b's larger class should lower tuple 2's breach probability: %v vs %v", probs3b[2], probs[2])
	}
}

func TestPersonalizedErrors(t *testing.T) {
	tax := maritalTax(t)
	col := sensitiveT1()
	part := partT3a(t)
	guards := make([]GuardingNode, 10)
	for i := range guards {
		guards[i] = GuardingNode{Label: "*", Tolerance: 1}
	}
	if _, err := PersonalizedBreachVector(part, col[:5], tax, guards); err == nil {
		t.Error("short column should fail")
	}
	if _, err := PersonalizedBreachVector(part, col, tax, guards[:5]); err == nil {
		t.Error("short guards should fail")
	}
	if _, err := PersonalizedBreachVector(part, col, nil, guards); err == nil {
		t.Error("nil taxonomy should fail")
	}
	bad := append([]GuardingNode(nil), guards...)
	bad[3] = GuardingNode{Label: "*", Tolerance: 2}
	if _, err := PersonalizedBreachVector(part, col, tax, bad); err == nil {
		t.Error("tolerance > 1 should fail")
	}
	gen := append([]dataset.Value(nil), col...)
	gen[0] = dataset.SetVal("Married")
	if _, err := PersonalizedBreachVector(part, gen, tax, guards); err == nil {
		t.Error("generalized sensitive value should fail")
	}
}
