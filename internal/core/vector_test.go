package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Paper §3 class-size vectors for T3a and T3b.
var (
	sT3a = PropertyVector{3, 3, 3, 3, 4, 4, 4, 3, 3, 4}
	tT3b = PropertyVector{3, 7, 7, 3, 7, 7, 7, 3, 7, 7}
	sT4  = PropertyVector{4, 6, 4, 4, 6, 6, 6, 4, 6, 6}
)

func TestCloneEqualNegate(t *testing.T) {
	v := PropertyVector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone shares storage")
	}
	n := v.Negate()
	if !slices.Equal(n, PropertyVector{-1, -2, -3}) {
		t.Errorf("Negate = %v", n)
	}
	if !slices.Equal(v, PropertyVector{1, 2, 3}) {
		t.Error("Negate mutated input")
	}
}

func TestValidate(t *testing.T) {
	if err := (PropertyVector{1, 2}).Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []PropertyVector{{}, {math.NaN()}, {math.Inf(1)}, {1, math.Inf(-1)}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%v) should fail", bad)
		}
	}
}

func TestWeakStrongDominance(t *testing.T) {
	a := PropertyVector{3, 3, 3}
	b := PropertyVector{3, 3, 3}
	c := PropertyVector{3, 4, 3}
	d := PropertyVector{4, 2, 3}

	if w, _ := WeaklyDominates(a, b); !w {
		t.Error("equal vectors should weakly dominate each other")
	}
	if s, _ := StronglyDominates(a, b); s {
		t.Error("equal vectors must not strongly dominate")
	}
	if w, _ := WeaklyDominates(c, a); !w {
		t.Error("c should weakly dominate a")
	}
	if s, _ := StronglyDominates(c, a); !s {
		t.Error("c should strongly dominate a")
	}
	if w, _ := WeaklyDominates(a, c); w {
		t.Error("a should not weakly dominate c")
	}
	if w, _ := WeaklyDominates(d, a); w {
		t.Error("incomparable vectors should not weakly dominate")
	}
}

func TestDominanceErrors(t *testing.T) {
	if _, err := WeaklyDominates(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := WeaklyDominates(nil, nil); err == nil {
		t.Error("empty vectors should fail")
	}
	if _, err := StronglyDominates(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := Compare(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestComparePaperVectors(t *testing.T) {
	// T3b's class-size vector weakly dominates T3a's: equal at tuples
	// 1,4,8 and strictly better everywhere else — so T3b strongly
	// dominates T3a on the privacy property (the paper's §1 argument that
	// T3b "should rightfully be evaluated as providing better privacy").
	rel, err := Compare(tT3b, sT3a)
	if err != nil {
		t.Fatal(err)
	}
	if rel != LeftDominates {
		t.Errorf("Compare(t,s) = %v, want left dominates", rel)
	}
	// T4 vs T3b: tuple 1 prefers T4 (4 > 3), tuple 3 prefers T3b (7 > 4) —
	// the paper's §2 user-8-vs-user-3 discussion: incomparable.
	rel, err = Compare(sT4, tT3b)
	if err != nil {
		t.Fatal(err)
	}
	if rel != Incomparable {
		t.Errorf("Compare(T4,T3b) = %v, want incomparable", rel)
	}
	// Self comparison.
	rel, _ = Compare(sT3a, sT3a)
	if rel != EqualVectors {
		t.Errorf("Compare(s,s) = %v", rel)
	}
	// T4 vs T3a: T4 gives every tuple a class at least as large (4 vs 3,
	// 6 vs 4) so T4 strongly dominates T3a.
	rel, _ = Compare(sT4, sT3a)
	if rel != LeftDominates {
		t.Errorf("Compare(T4,T3a) = %v, want left dominates", rel)
	}
}

func TestRelationString(t *testing.T) {
	names := map[Relation]string{
		Incomparable:   "incomparable",
		EqualVectors:   "equal",
		LeftDominates:  "left strongly dominates",
		RightDominates: "right strongly dominates",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
	if !strings.Contains(Relation(99).String(), "99") {
		t.Error("unknown relation should include code")
	}
}

func randVec(rng *rand.Rand, n int) PropertyVector {
	v := make(PropertyVector, n)
	for i := range v {
		v[i] = float64(rng.Intn(5))
	}
	return v
}

// Table 4 semantics: the four relations are mutually exclusive and
// exhaustive, and Compare is consistent with the Weak/Strong predicates.
func TestDominancePartialOrderLawsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := rng.Intn(6) + 1
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)

		// Reflexivity of weak dominance.
		if w, _ := WeaklyDominates(a, a); !w {
			return false
		}
		// Irreflexivity of strong dominance.
		if s, _ := StronglyDominates(a, a); s {
			return false
		}
		// Antisymmetry: a ≿ b and b ≿ a implies equality.
		wab, _ := WeaklyDominates(a, b)
		wba, _ := WeaklyDominates(b, a)
		if wab && wba && !slices.Equal(a, b) {
			return false
		}
		// Transitivity of weak dominance.
		wbc, _ := WeaklyDominates(b, c)
		wac, _ := WeaklyDominates(a, c)
		if wab && wbc && !wac {
			return false
		}
		// Compare consistency.
		rel, _ := Compare(a, b)
		sab, _ := StronglyDominates(a, b)
		sba, _ := StronglyDominates(b, a)
		switch rel {
		case EqualVectors:
			if !slices.Equal(a, b) || sab || sba {
				return false
			}
		case LeftDominates:
			if !sab || sba {
				return false
			}
		case RightDominates:
			if !sba || sab {
				return false
			}
		case Incomparable:
			if wab || wba {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatalf("law violated at iteration %d", i)
		}
	}
}

func TestStrongDominanceIsStrictOrderQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// asymmetry and transitivity of ≻
	for i := 0; i < 2000; i++ {
		n := rng.Intn(5) + 1
		a, b, c := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		sab, _ := StronglyDominates(a, b)
		sba, _ := StronglyDominates(b, a)
		if sab && sba {
			t.Fatal("strong dominance must be asymmetric")
		}
		sbc, _ := StronglyDominates(b, c)
		sac, _ := StronglyDominates(a, c)
		if sab && sbc && !sac {
			t.Fatal("strong dominance must be transitive")
		}
	}
}

func TestNegateReversesDominanceQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 || len(raw)%2 != 0 {
			return true
		}
		n := len(raw) / 2
		a := make(PropertyVector, n)
		b := make(PropertyVector, n)
		for i := 0; i < n; i++ {
			a[i] = float64(raw[i])
			b[i] = float64(raw[n+i])
		}
		wab, _ := WeaklyDominates(a, b)
		wba, _ := WeaklyDominates(b.Negate(), a.Negate())
		return wab == wba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
