package bottomup

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/privacy"
)

func TestBottomUpOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	if r.Stats["generalization_steps"] < 1 {
		t.Error("T1 needs at least one climb for k=3")
	}
}

func TestBottomUpStaysAtBottomForK1(t *testing.T) {
	tab, cfg := algtest.PaperConfig(1)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Levels.Height() != 0 {
		t.Errorf("k=1 should keep the bottom node, got %v", r.Levels)
	}
}

func TestBottomUpNeverBeatsOptimal(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(250, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	bur, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, bur)
	opt, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buCost, _ := algorithm.ResultCost(bur, tab, cfg)
	optCost, _ := algorithm.ResultCost(opt, tab, cfg)
	if optCost > buCost+1e-9 {
		t.Errorf("optimal %v worse than bottom-up %v — impossible", optCost, buCost)
	}
}

func TestBottomUpVsDataflyCostAwareness(t *testing.T) {
	// Both climb from the bottom; bottom-up is cost-guided, so across a
	// few seeds it must never be strictly worse than Datafly on the
	// metric it optimizes, at least once strictly better OR always equal.
	better, worse := 0, 0
	for seed := int64(31); seed < 36; seed++ {
		tab, cfg, err := algtest.CensusConfig(300, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		bur, err := New().Anonymize(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dfr, err := datafly.New().Anonymize(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buCost, _ := algorithm.ResultCost(bur, tab, cfg)
		dfCost, _ := algorithm.ResultCost(dfr, tab, cfg)
		switch {
		case buCost < dfCost-1e-9:
			better++
		case buCost > dfCost+1e-9:
			worse++
		}
	}
	t.Logf("bottom-up vs datafly over 5 seeds: better=%d worse=%d", better, worse)
	if better == 0 && worse > 0 {
		t.Errorf("cost-guided climbing never beat Datafly but lost %d times", worse)
	}
}

func TestBottomUpWithConstraints(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 2
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	if len(r.Suppressed) == 0 {
		col := tab.ColumnVector(tab.Schema.SensitiveIndex())
		h, err := r.Partition.Histograms(col)
		if err != nil {
			t.Fatal(err)
		}
		if l := privacy.DistinctLDiversity(h); l < 2 {
			t.Fatalf("result is %d-diverse, want 2", l)
		}
	}
}

func TestBottomUpDeterminism(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 5, 38)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckDeterminism(t, New(), tab, cfg)
}

func TestBottomUpFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}
