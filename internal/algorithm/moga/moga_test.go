package moga

import (
	"math"
	"slices"
	"testing"

	"microdata/internal/algorithm/algtest"
)

func TestObjectivesDominates(t *testing.T) {
	a := Objectives{PrivacyRank: 1, Loss: 0.2}
	b := Objectives{PrivacyRank: 2, Loss: 0.3}
	c := Objectives{PrivacyRank: 0.5, Loss: 0.5}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b must not dominate a")
	}
	if a.Dominates(a) {
		t.Error("dominance is strict")
	}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("a and c are incomparable")
	}
}

func TestExhaustiveFrontOnPaperLattice(t *testing.T) {
	tab, cfg := algtest.PaperConfig(1)
	front, err := ExhaustiveFront(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if front.Evaluations != 30 {
		t.Errorf("evaluated %d nodes, want 30", front.Evaluations)
	}
	if len(front.Points) < 2 {
		t.Fatalf("front too small: %d points", len(front.Points))
	}
	// Mutual non-dominance within the front.
	for i, p := range front.Points {
		for j, q := range front.Points {
			if i != j && p.Obj.Dominates(q.Obj) {
				t.Fatalf("front point %v dominates fellow point %v", p.Obj, q.Obj)
			}
		}
	}
	// Sorted by privacy rank; loss must fall as rank rises (trade-off).
	for i := 1; i < len(front.Points); i++ {
		prev, cur := front.Points[i-1], front.Points[i]
		if cur.Obj.PrivacyRank < prev.Obj.PrivacyRank {
			t.Fatal("front not sorted by privacy rank")
		}
		if cur.Obj.Loss > prev.Obj.Loss {
			t.Fatalf("loss should fall along the front: %v then %v", prev.Obj, cur.Obj)
		}
	}
	// The extremes: bottom node (no loss, poor privacy) and top node
	// (full loss... actually perfect privacy rank 0) must be represented
	// in objective space.
	first, last := front.Points[0], front.Points[len(front.Points)-1]
	if first.Obj.PrivacyRank != 0 {
		t.Errorf("best-privacy end should reach rank 0 (single class), got %v", first.Obj)
	}
	if last.Obj.Loss != 0 {
		t.Errorf("best-utility end should reach loss 0 (identity), got %v", last.Obj)
	}
	// k is emergent: the rank-0 end is the whole table in one class.
	if first.KActual != tab.Len() {
		t.Errorf("perfect-privacy point has k=%d, want %d", first.KActual, tab.Len())
	}
}

func TestNSGA2MatchesExhaustiveOnSmallLattice(t *testing.T) {
	tab, cfg := algtest.PaperConfig(1)
	cfg.Seed = 5
	truth, err := ExhaustiveFront(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&NSGA2{}).Explore(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := Coverage(got, truth)
	if cov < 1 {
		t.Errorf("NSGA-II coverage of the 30-node exhaustive front = %v, want 1.0", cov)
	}
	// The archive front itself must be mutually non-dominated.
	for i, p := range got.Points {
		for j, q := range got.Points {
			if i != j && p.Obj.Dominates(q.Obj) {
				t.Fatal("NSGA-II front is not non-dominated")
			}
		}
	}
}

func TestNSGA2OnCensus(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(250, 1, 27)
	if err != nil {
		t.Fatal(err)
	}
	front, err := (&NSGA2{PopSize: 24, Generations: 25}).Explore(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) < 3 {
		t.Fatalf("census front has only %d points", len(front.Points))
	}
	// Determinism.
	again, err := (&NSGA2{PopSize: 24, Generations: 25}).Explore(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) != len(again.Points) {
		t.Fatal("NSGA-II not deterministic for fixed seed")
	}
	for i := range front.Points {
		if !slices.Equal(front.Points[i].Node, again.Points[i].Node) {
			t.Fatal("NSGA-II front nodes differ across identical runs")
		}
	}
	// The node cache must keep evaluations at or below pop*(gens+1).
	if front.Evaluations > 24*27 {
		t.Errorf("evaluations %d exceed budget", front.Evaluations)
	}
}

func TestCoverage(t *testing.T) {
	ref := &Front{Points: []Point{
		{Obj: Objectives{PrivacyRank: 1, Loss: 0.5}},
		{Obj: Objectives{PrivacyRank: 2, Loss: 0.2}},
	}}
	full := &Front{Points: ref.Points}
	if got := Coverage(full, ref); got != 1 {
		t.Errorf("self coverage = %v", got)
	}
	half := &Front{Points: ref.Points[:1]}
	if got := Coverage(half, ref); got != 0.5 {
		t.Errorf("half coverage = %v", got)
	}
	dominating := &Front{Points: []Point{{Obj: Objectives{PrivacyRank: 0, Loss: 0}}}}
	if got := Coverage(dominating, ref); got != 1 {
		t.Errorf("dominating coverage = %v", got)
	}
	if got := Coverage(full, &Front{}); !math.IsNaN(got) {
		t.Errorf("coverage of empty reference should be NaN, got %v", got)
	}
}

func TestMogaValidation(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	cfg.Hierarchies = nil
	if _, err := ExhaustiveFront(tab, cfg); err == nil {
		t.Error("missing hierarchies should fail")
	}
	if _, err := (&NSGA2{}).Explore(tab, cfg); err == nil {
		t.Error("missing hierarchies should fail")
	}
}
