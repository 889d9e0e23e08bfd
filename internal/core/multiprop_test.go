package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Paper §5.5 fixtures: Iyengar-loss utility property vectors for T3a and
// T3b quoted verbatim from the paper (higher is better by the paper's
// convention for these vectors; see EXPERIMENTS.md).
var (
	uT3a = PropertyVector{2.03, 1.7, 1.7, 2.03, 1.6, 1.6, 1.6, 2.03, 1.7, 1.6}
	uT3b = PropertyVector{2.03, 0.97, 0.97, 2.03, 0.97, 0.97, 0.97, 2.03, 0.97, 0.97}
)

func TestPropertySetValidate(t *testing.T) {
	ok := PropertySet{sT3a, uT3a}
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
	cases := []PropertySet{
		{},
		{PropertyVector{}},
		{sT3a, PropertyVector{1, 2}},
		{PropertyVector{math.NaN()}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSetDominance(t *testing.T) {
	a := PropertySet{PropertyVector{2, 2}, PropertyVector{3, 3}}
	b := PropertySet{PropertyVector{1, 2}, PropertyVector{3, 3}}
	if w, err := WeaklyDominatesSet(a, b); err != nil || !w {
		t.Errorf("WeaklyDominatesSet = %v, %v", w, err)
	}
	if s, err := StronglyDominatesSet(a, b); err != nil || !s {
		t.Errorf("StronglyDominatesSet = %v, %v", s, err)
	}
	if s, _ := StronglyDominatesSet(a, a); s {
		t.Error("set must not strongly dominate itself")
	}
	// One property better, one worse: no weak dominance.
	c := PropertySet{PropertyVector{9, 9}, PropertyVector{1, 1}}
	if w, _ := WeaklyDominatesSet(c, a); w {
		t.Error("mixed sets should not weakly dominate")
	}
	if _, err := WeaklyDominatesSet(a, PropertySet{PropertyVector{1, 2}}); err == nil {
		t.Error("property-count mismatch should fail")
	}
	if _, err := WeaklyDominatesSet(a, PropertySet{PropertyVector{1}, PropertyVector{2}}); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, err := StronglyDominatesSet(PropertySet{}, PropertySet{}); err == nil {
		t.Error("empty sets should fail")
	}
}

func TestWTDPaperExample(t *testing.T) {
	// §5.5: equal weights on privacy (class size) and utility (Iyengar),
	// both scored by P_cov: T3a and T3b come out equally good.
	w, err := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	y1 := PropertySet{sT3a, uT3a}
	y2 := PropertySet{tT3b, uT3b}
	s12, err := w.Score(y1, y2)
	if err != nil {
		t.Fatal(err)
	}
	s21, err := w.Score(y2, y1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s12-0.65) > 1e-12 || math.Abs(s21-0.65) > 1e-12 {
		t.Errorf("P_WTD scores = %v, %v; want 0.65, 0.65", s12, s21)
	}
	out, err := w.Compare(y1, y2)
	if err != nil || out != Tie {
		t.Errorf("WTD compare = %v, %v; want tie (paper: equally good)", out, err)
	}
	if w.Name() != "WTD" {
		t.Errorf("name = %q", w.Name())
	}
}

func TestWTDWeightedTowardPrivacy(t *testing.T) {
	// Weighting privacy 0.9 breaks the §5.5 tie in favor of T3b.
	w, err := NewWTD([]float64{0.9, 0.1}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Compare(PropertySet{tT3b, uT3b}, PropertySet{sT3a, uT3a})
	if err != nil || out != LeftBetter {
		t.Errorf("privacy-weighted WTD = %v, %v; want left better", out, err)
	}
}

func TestNewWTDValidation(t *testing.T) {
	cases := []struct {
		w   []float64
		idx []BinaryIndex
	}{
		{nil, nil},
		{[]float64{0.5}, []BinaryIndex{PCov, PCov}},
		{[]float64{0.5, 0.6}, []BinaryIndex{PCov, PCov}},
		{[]float64{-0.5, 1.5}, []BinaryIndex{PCov, PCov}},
		{[]float64{0, 1}, []BinaryIndex{PCov, PCov}},
		{[]float64{math.NaN(), 1}, []BinaryIndex{PCov, PCov}},
	}
	for i, c := range cases {
		if _, err := NewWTD(c.w, c.idx); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Single property with weight 1 is explicitly allowed.
	if _, err := NewWTD([]float64{1}, []BinaryIndex{PCov}); err != nil {
		t.Errorf("single weight 1 should be allowed: %v", err)
	}
}

func TestWTDScoreErrors(t *testing.T) {
	w, _ := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PCov})
	if _, err := w.Score(PropertySet{sT3a}, PropertySet{tT3b}); err == nil {
		t.Error("property-count mismatch vs config should fail")
	}
	if _, err := w.Compare(PropertySet{}, PropertySet{}); err == nil {
		t.Error("empty sets should fail")
	}
}

func TestLEXPaperSemantics(t *testing.T) {
	// Privacy ordered before utility. T3b is significantly superior on
	// privacy (P_cov difference 0.7 > ε=0.1), so LEX prefers T3b no
	// matter how badly it loses utility.
	lex, err := NewLEX([]float64{0.1, 0.1}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	y1 := PropertySet{tT3b, uT3b} // privacy first
	y2 := PropertySet{sT3a, uT3a}
	s12, err := lex.Score(y1, y2)
	if err != nil {
		t.Fatal(err)
	}
	if s12 != 1 {
		t.Errorf("P_LEX(T3b-set, T3a-set) = %d, want 1 (superior on property 1)", s12)
	}
	s21, err := lex.Score(y2, y1)
	if err != nil {
		t.Fatal(err)
	}
	if s21 != 2 {
		t.Errorf("P_LEX(T3a-set, T3b-set) = %d, want 2 (first superiority is utility)", s21)
	}
	out, err := lex.Compare(y1, y2)
	if err != nil || out != LeftBetter {
		t.Errorf("LEX compare = %v, %v; want left better", out, err)
	}
	if lex.Name() != "LEX" {
		t.Errorf("name = %q", lex.Name())
	}
	// With utility ordered first the preference flips.
	y1u := PropertySet{uT3b, tT3b}
	y2u := PropertySet{uT3a, sT3a}
	out, err = lex.Compare(y1u, y2u)
	if err != nil || out != RightBetter {
		t.Errorf("utility-first LEX = %v, %v; want right better", out, err)
	}
}

func TestLEXNoSignificantDifferenceTies(t *testing.T) {
	// Huge ε makes everything insignificant: both scores are r+1.
	lex, err := NewLEX([]float64{10, 10}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	out, err := lex.Compare(PropertySet{tT3b, uT3b}, PropertySet{sT3a, uT3a})
	if err != nil || out != Tie {
		t.Errorf("LEX with huge eps = %v, %v; want tie", out, err)
	}
}

func TestNewLEXValidation(t *testing.T) {
	if _, err := NewLEX(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := NewLEX([]float64{-1}, []BinaryIndex{PCov}); err == nil {
		t.Error("negative eps should fail")
	}
	if _, err := NewLEX([]float64{math.NaN()}, []BinaryIndex{PCov}); err == nil {
		t.Error("NaN eps should fail")
	}
	if _, err := NewLEX([]float64{0.1}, []BinaryIndex{PCov, PCov}); err == nil {
		t.Error("length mismatch should fail")
	}
	lex, _ := NewLEX([]float64{0.1}, []BinaryIndex{PCov})
	if _, err := lex.Score(PropertySet{sT3a, uT3a}, PropertySet{tT3b, uT3b}); err == nil {
		t.Error("property-count mismatch vs config should fail")
	}
}

func TestGOALPaperSemantics(t *testing.T) {
	// Goal: full coverage on privacy (1.0) and at least the observed 0.3
	// on utility. T3b's set hits the privacy goal exactly.
	goal, err := NewGOAL([]float64{1.0, 0.3}, []BinaryIndex{PCov, PCov})
	if err != nil {
		t.Fatal(err)
	}
	y1 := PropertySet{tT3b, uT3b}
	y2 := PropertySet{sT3a, uT3a}
	s12, err := goal.Score(y1, y2)
	if err != nil {
		t.Fatal(err)
	}
	// P_cov(t,s)=1 (goal 1 → 0) and P_cov(u_b,u_a)=0.3 (goal 0.3 → 0).
	if math.Abs(s12) > 1e-12 {
		t.Errorf("P_GOAL(T3b-set, T3a-set) = %v, want 0", s12)
	}
	s21, err := goal.Score(y2, y1)
	if err != nil {
		t.Fatal(err)
	}
	// P_cov(s,t)=0.3 (err 0.7²) + P_cov(u_a,u_b)=1 (err 0.7²) = 0.98.
	if math.Abs(s21-0.98) > 1e-12 {
		t.Errorf("P_GOAL(T3a-set, T3b-set) = %v, want 0.98", s21)
	}
	out, err := goal.Compare(y1, y2)
	if err != nil || out != LeftBetter {
		t.Errorf("GOAL compare = %v, %v; want left better (lower error)", out, err)
	}
	if goal.Name() != "GOAL" {
		t.Errorf("name = %q", goal.Name())
	}
}

func TestNewGOALValidation(t *testing.T) {
	if _, err := NewGOAL(nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := NewGOAL([]float64{math.NaN()}, []BinaryIndex{PCov}); err == nil {
		t.Error("NaN goal should fail")
	}
	if _, err := NewGOAL([]float64{math.Inf(1)}, []BinaryIndex{PCov}); err == nil {
		t.Error("Inf goal should fail")
	}
	if _, err := NewGOAL([]float64{1, 2}, []BinaryIndex{PCov}); err == nil {
		t.Error("length mismatch should fail")
	}
	g, _ := NewGOAL([]float64{1}, []BinaryIndex{PCov})
	if _, err := g.Score(PropertySet{sT3a, uT3a}, PropertySet{tT3b, uT3b}); err == nil {
		t.Error("property-count mismatch vs config should fail")
	}
}

func TestSetComparatorAntisymmetryQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wtd, _ := NewWTD([]float64{0.5, 0.5}, []BinaryIndex{PCov, PSpr})
	lex, _ := NewLEX([]float64{0.05, 0.05}, []BinaryIndex{PCov, PCov})
	goal, _ := NewGOAL([]float64{1, 1}, []BinaryIndex{PCov, PCov})
	for i := 0; i < 800; i++ {
		n := rng.Intn(4) + 2
		mk := func() PropertySet {
			s := make(PropertySet, 2)
			for p := range s {
				v := make(PropertyVector, n)
				for j := range v {
					v[j] = float64(rng.Intn(6) + 1)
				}
				s[p] = v
			}
			return s
		}
		a, b := mk(), mk()
		for _, c := range []SetComparator{wtd, lex, goal} {
			ab, err1 := c.Compare(a, b)
			ba, err2 := c.Compare(b, a)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s errored: %v %v", c.Name(), err1, err2)
			}
			if ab != ba.Flip() {
				t.Fatalf("%s not antisymmetric: %v vs %v", c.Name(), ab, ba)
			}
		}
	}
}

func TestNormalizeTogether(t *testing.T) {
	a := PropertyVector{0, 5, 10}
	b := PropertyVector{10, 0, 5}
	na, nb, err := NormalizeTogether(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(na, PropertyVector{0, 0.5, 1}) || !slices.Equal(nb, PropertyVector{1, 0, 0.5}) {
		t.Errorf("normalized = %v, %v", na, nb)
	}
	if a[0] != 0 || b[0] != 10 {
		t.Error("inputs mutated")
	}
	// Constant pair.
	ca, cb, err := NormalizeTogether(PropertyVector{3, 3}, PropertyVector{3, 3})
	if err != nil || !slices.Equal(ca, PropertyVector{0, 0}) || !slices.Equal(cb, PropertyVector{0, 0}) {
		t.Errorf("constant normalize = %v, %v, %v", ca, cb, err)
	}
	if _, _, err := NormalizeTogether(PropertyVector{1}, PropertyVector{1, 2}); err == nil {
		t.Error("size mismatch should fail")
	}
}

// Normalization must not change coverage-based comparisons (P_cov depends
// only on the order of aligned elements, which min-max scaling preserves).
func TestNormalizePreservesCoverageQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1000; i++ {
		n := rng.Intn(5) + 1
		a := make(PropertyVector, n)
		b := make(PropertyVector, n)
		for j := range a {
			a[j] = float64(rng.Intn(20))
			b[j] = float64(rng.Intn(20))
		}
		na, nb, err := NormalizeTogether(a, b)
		if err != nil {
			t.Fatal(err)
		}
		c1, _ := EvalBinary(PCov, a, b)
		c2, _ := EvalBinary(PCov, na, nb)
		if c1 != c2 {
			t.Fatalf("normalization changed coverage: %v vs %v", c1, c2)
		}
	}
}
