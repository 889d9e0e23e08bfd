package core

import (
	"slices"
	"testing"
)

func TestStandardPanelFindsCounterexampleFast(t *testing.T) {
	// Theorem 1 (E13): five classical aggregate indices cannot
	// characterize dominance on vectors of size >= 2. A counterexample
	// must surface quickly under random search.
	ce, trials, err := FindDominanceCounterexample(StandardPanel(), 10, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Fatalf("no counterexample in %d trials — Theorem 1 says one must exist", trials)
	}
	// Verify the witness really is one.
	agree, _ := StandardPanel().AgreesGE(ce.A, ce.B)
	dom, _ := WeaklyDominates(ce.A, ce.B)
	if !(agree && !dom) && !(dom && !agree) {
		t.Errorf("reported counterexample is not one: %+v (agree=%v dom=%v)", ce, agree, dom)
	}
	if trials < 1 {
		t.Errorf("trials = %d", trials)
	}
}

func TestStandardPanelSwappedPairWitness(t *testing.T) {
	// The canonical witness from Theorem 1's proof: (a,b) vs (b,a) with
	// a != b. Every symmetric index scores them equally, so the panel
	// asserts mutual >= while the vectors are incomparable.
	a := PropertyVector{1, 2}
	b := PropertyVector{2, 1}
	p := StandardPanel()
	agreeAB, err := p.AgreesGE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	agreeBA, err := p.AgreesGE(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !agreeAB || !agreeBA {
		t.Fatal("symmetric panel should score swapped vectors equal")
	}
	rel, _ := Compare(a, b)
	if rel != Incomparable {
		t.Fatalf("swapped pair should be incomparable, got %v", rel)
	}
}

func TestProjectionPanelSatisfiesEquivalence(t *testing.T) {
	// With n = N projection indices the equivalence of Theorem 1 holds:
	// no counterexample exists (the theorem's bound is tight).
	for _, n := range []int{2, 3, 5} {
		ce, trials, err := VerifyEquivalence(ProjectionPanel(n), n, 5000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if ce != nil {
			t.Errorf("projection panel of size %d produced counterexample after %d trials: %+v", n, trials, ce)
		}
	}
}

func TestTruncatedProjectionPanelFails(t *testing.T) {
	// Corollary sanity: n-1 projections on size-n vectors must fail — the
	// uncovered coordinate hides dominance violations.
	ce, _, err := FindDominanceCounterexample(ProjectionPanel(3), 4, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Error("3 projections on size-4 vectors should admit a counterexample")
	}
}

func TestPanelErrors(t *testing.T) {
	if _, _, err := FindDominanceCounterexample(StandardPanel(), 1, 10, 1); err == nil {
		t.Error("size < 2 should fail")
	}
	if _, _, err := FindDominanceCounterexample(StandardPanel(), 3, 0, 1); err == nil {
		t.Error("zero trials should fail")
	}
	if _, _, err := FindDominanceCounterexample(Panel{}, 3, 10, 1); err == nil {
		t.Error("empty panel should fail")
	}
	if _, err := (Panel{}).AgreesGE(PropertyVector{1}, PropertyVector{1}); err == nil {
		t.Error("empty panel AgreesGE should fail")
	}
	if _, err := StandardPanel().AgreesGE(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestPanelOrientationRespected(t *testing.T) {
	// A lower-is-better index must be folded into the >= test.
	p := Panel{Indices: []UnaryIndex{PRank(PropertyVector{5, 5})}}
	closer := PropertyVector{5, 4}
	farther := PropertyVector{1, 1}
	agree, err := p.AgreesGE(closer, farther)
	if err != nil {
		t.Fatal(err)
	}
	if !agree {
		t.Error("closer vector should score at least as well on rank")
	}
	agree, _ = p.AgreesGE(farther, closer)
	if agree {
		t.Error("farther vector must not score >= on rank")
	}
}

func TestFindDominanceCounterexampleDeterministic(t *testing.T) {
	ce1, n1, err1 := FindDominanceCounterexample(StandardPanel(), 6, 1000, 99)
	ce2, n2, err2 := FindDominanceCounterexample(StandardPanel(), 6, 1000, 99)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if n1 != n2 || (ce1 == nil) != (ce2 == nil) {
		t.Fatal("search is not deterministic for a fixed seed")
	}
	if ce1 != nil && (!slices.Equal(ce1.A, ce2.A) || !slices.Equal(ce1.B, ce2.B)) {
		t.Error("witnesses differ across identical runs")
	}
}
