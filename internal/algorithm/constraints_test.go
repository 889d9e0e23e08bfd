package algorithm

import (
	"math"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/privacy"
)

func TestConfigValidateConstraints(t *testing.T) {
	tab := table()
	good := Config{K: 2, Hierarchies: hierSet(), MinLDiversity: 2, MaxTCloseness: 0.5}
	if err := good.Validate(tab); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{K: 2, Hierarchies: hierSet(), MinLDiversity: -1},
		{K: 2, Hierarchies: hierSet(), MaxTCloseness: -0.1},
		{K: 2, Hierarchies: hierSet(), MaxTCloseness: 1.5},
		{K: 2, Hierarchies: hierSet(), MaxTCloseness: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(tab); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Constraints without a sensitive attribute must be rejected.
	noSensB := dataset.NewColumnar(dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
	))
	noSensB.MustAppend(dataset.StrVal("13053"), dataset.NumVal(28))
	noSensB.MustAppend(dataset.StrVal("13052"), dataset.NumVal(31))
	noSens := noSensB.Table()
	c := Config{K: 1, Hierarchies: hierSet(), MinLDiversity: 2}
	if err := c.Validate(noSens); err == nil {
		t.Error("constraints without sensitive attribute should fail")
	}
}

func TestApplyNodeFlagsLDiversityViolations(t *testing.T) {
	tab := table()
	// At T3a levels ([1 1]) every class is 3-anonymous; distinct counts
	// per class are 2, 2, 3. Requiring ℓ >= 3 must flag the two classes
	// with only 2 distinct values: rows {0,3,7} and {1,2,8}.
	cfg := Config{K: 3, Hierarchies: hierSet(), MinLDiversity: 3}
	_, _, small, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 7, 8}
	if len(small) != len(want) {
		t.Fatalf("flagged rows = %v, want %v", small, want)
	}
	for i := range want {
		if small[i] != want[i] {
			t.Fatalf("flagged rows = %v, want %v", small, want)
		}
	}
	// ℓ = 2 is satisfied everywhere at that node.
	cfg.MinLDiversity = 2
	_, _, small, err = ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Fatalf("ℓ=2 should pass at [1 1], flagged %v", small)
	}
}

func TestApplyNodeFlagsTClosenessViolations(t *testing.T) {
	tab := table()
	// A tight t bound flags skewed classes; the top node (single class =
	// global distribution) always satisfies t = anything.
	cfg := Config{K: 3, Hierarchies: hierSet(), MaxTCloseness: 0.05}
	_, _, small, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) == 0 {
		t.Fatal("a 0.05 t-closeness bound should flag T3a's skewed classes")
	}
	top := lattice.Node{5, 4}
	_, _, small, err = ApplyNode(tab, cfg, top)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Fatalf("single-class node violates t-closeness? flagged %v", small)
	}
}

func TestSatisfiesConstraints(t *testing.T) {
	tab := table()
	cfg := Config{K: 3, Hierarchies: hierSet(), MinLDiversity: 2}
	anon, p, _, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := SatisfiesConstraints(p, anon, cfg)
	if err != nil || !ok {
		t.Fatalf("ℓ=2 at [1 1] should hold: %v, %v", ok, err)
	}
	cfg.MinLDiversity = 3
	ok, err = SatisfiesConstraints(p, anon, cfg)
	if err != nil || ok {
		t.Fatalf("ℓ=3 at [1 1] should fail: %v, %v", ok, err)
	}
	// Suppressing the violating classes rescues the constraint (the star
	// class is exempt).
	_, _, small, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	anon2, err := hierarchy.SuppressRows(anon, small)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eqclass.FromTable(anon2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = SatisfiesConstraints(p2, anon2, cfg)
	if err != nil || !ok {
		t.Fatalf("after suppression ℓ=3 should hold: %v, %v", ok, err)
	}
}

func TestFinishGlobalEnforcesConstraints(t *testing.T) {
	tab := table()
	// ℓ=3 at node [1 1]: 6 rows violate; with budget they get suppressed
	// and the result is simultaneously 3-anonymous and 3-diverse.
	cfg := Config{K: 3, Hierarchies: hierSet(), MinLDiversity: 3, MaxSuppression: 0.6}
	r, err := FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Suppressed) != 6 {
		t.Fatalf("suppressed %d rows, want 6", len(r.Suppressed))
	}
	si := tab.Schema.SensitiveIndex()
	sensitive := r.Table.Column(si)
	// Every retained (non-star) class must hold >= 3 distinct values.
	counts, err := r.Partition.ValueCounts(sensitive)
	if err != nil {
		t.Fatal(err)
	}
	qi := tab.Schema.QuasiIdentifiers()
	for ci, rows := range r.Partition.Classes {
		star := true
		for _, j := range qi {
			if !r.Table.At(rows[0], j).IsSuppressed() {
				star = false
			}
		}
		if !star && len(counts[ci]) < 3 {
			t.Errorf("retained class %d has only %d distinct sensitive values", ci, len(counts[ci]))
		}
	}
	// Without budget the same node must be rejected.
	cfg.MaxSuppression = 0
	if _, err := FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil); err == nil {
		t.Error("constraint violations without budget should fail")
	}
}

func TestApplyNodeFlagsEntropyLViolations(t *testing.T) {
	tab := table()
	// At T3a levels, class {0,3,7} has counts {CF-Spouse:2, Spouse
	// Present:1}: entropy ℓ = exp(-(2/3)ln(2/3)-(1/3)ln(1/3)) ≈ 1.89.
	// Requiring entropy ℓ >= 2 flags it (and {1,2,8}, same shape); the
	// class {4,5,6,9} has counts {2,1,1}: ℓ ≈ 2.83, which passes.
	cfg := Config{K: 3, Hierarchies: hierSet(), MinEntropyL: 2}
	_, _, small, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 7, 8}
	if len(small) != len(want) {
		t.Fatalf("flagged = %v, want %v", small, want)
	}
	for i := range want {
		if small[i] != want[i] {
			t.Fatalf("flagged = %v, want %v", small, want)
		}
	}
	// ℓ = 1.5 passes everywhere.
	cfg.MinEntropyL = 1.5
	_, _, small, err = ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Fatalf("entropy ℓ=1.5 should pass, flagged %v", small)
	}
	// Validation.
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		c := Config{K: 2, Hierarchies: hierSet(), MinEntropyL: bad}
		if err := c.Validate(tab); err == nil {
			t.Errorf("MinEntropyL=%v should fail validation", bad)
		}
	}
}

func TestApplyNodeFlagsRecursiveCLViolations(t *testing.T) {
	tab := table()
	// Class {0,3,7} counts {2,1}: r1=2, ℓ=2 tail=1 → needs 2 < c·1.
	// c=1.5 fails it; c=2.5 passes. Class {4,5,6,9} counts {2,1,1}:
	// r1=2, tail=2 → 2 < 1.5·2 passes both.
	cfg := Config{K: 3, Hierarchies: hierSet(), RecursiveC: 1.5, RecursiveL: 2}
	_, _, small, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 7, 8}
	if len(small) != len(want) {
		t.Fatalf("flagged = %v, want %v", small, want)
	}
	cfg.RecursiveC = 2.5
	_, _, small, err = ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Fatalf("(2.5,2)-diversity should pass, flagged %v", small)
	}
	// Validation: c and l must come together and be sane.
	bad := []Config{
		{K: 2, Hierarchies: hierSet(), RecursiveC: 1.5},
		{K: 2, Hierarchies: hierSet(), RecursiveL: 2},
		{K: 2, Hierarchies: hierSet(), RecursiveC: -1, RecursiveL: 2},
		{K: 2, Hierarchies: hierSet(), RecursiveC: math.NaN(), RecursiveL: 2},
		{K: 2, Hierarchies: hierSet(), RecursiveC: 1, RecursiveL: -2},
	}
	for i, c := range bad {
		if err := c.Validate(tab); err == nil {
			t.Errorf("bad recursive config %d accepted", i)
		}
	}
}

func TestClassRecursiveCL(t *testing.T) {
	counts := func() []int { return []int{2, 1, 3} }
	// r1=3, l=2 tail=3: 3 < 1·3 false; 3 < 1.5·3 true.
	if privacy.RecursiveCL(counts(), 1.0, 2) {
		t.Error("(1,2) should fail")
	}
	if !privacy.RecursiveCL(counts(), 1.5, 2) {
		t.Error("(1.5,2) should pass")
	}
	if privacy.RecursiveCL(counts(), 10, 4) {
		t.Error("l beyond distinct count should fail")
	}
}

func TestClassEntropyL(t *testing.T) {
	if got := privacy.ClassEntropyL(map[string]int{"a": 2, "b": 2}); math.Abs(got-2) > 1e-9 {
		t.Errorf("uniform entropy ℓ = %v, want 2", got)
	}
	if got := privacy.ClassEntropyL(map[string]int{"a": 5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("degenerate entropy ℓ = %v, want 1", got)
	}
	if got := privacy.ClassEntropyL(nil); got != 0 {
		t.Errorf("empty entropy ℓ = %v, want 0", got)
	}
}

func TestClassEMDHelperAgreesWithTCloseness(t *testing.T) {
	tab := table()
	cfg := Config{K: 3, Hierarchies: hierSet()}
	anon, p, _, err := ApplyNode(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	si := tab.Schema.SensitiveIndex()
	col := anon.Column(si)
	vec, err := privacy.TClosenessVector(p, col, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range p.Classes {
		d, err := privacy.ClassEMD(col, rows, false)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-vec[rows[0]]) > 1e-12 {
			t.Errorf("ClassEMD %v != TClosenessVector %v", d, vec[rows[0]])
		}
	}
	if _, err := privacy.ClassEMD(col, nil, false); err == nil {
		t.Error("empty class should fail")
	}
	if _, err := privacy.ClassEMD(nil, []int{0}, false); err == nil {
		t.Error("empty column should fail")
	}
	if _, err := privacy.ClassEMD(col, []int{99}, false); err == nil {
		t.Error("out-of-range row should fail")
	}
}
