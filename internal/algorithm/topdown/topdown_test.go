package topdown

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/optimal"
)

func TestTopDownOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	if r.Stats["specializations"] < 1 {
		t.Error("expected at least one specialization from the top node")
	}
}

func TestTopDownNeverWorseThanTopNode(t *testing.T) {
	tab, cfg := algtest.PaperConfig(4)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := algorithm.ResultCost(r, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ml, _ := cfg.Hierarchies.MaxLevels(tab.Schema)
	topCost, err := algtest.NodeCost(tab, cfg, ml)
	if err != nil {
		t.Fatal(err)
	}
	if c > topCost+1e-12 {
		t.Errorf("greedy descent ended worse (%v) than its start (%v)", c, topCost)
	}
}

func TestTopDownVsOptimalGap(t *testing.T) {
	// Greedy specialization cannot beat the exhaustive optimum.
	tab, cfg, err := algtest.CensusConfig(200, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	td, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, td)
	opt, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tdCost, _ := algorithm.ResultCost(td, tab, cfg)
	optCost, _ := algorithm.ResultCost(opt, tab, cfg)
	if optCost > tdCost+1e-9 {
		t.Errorf("optimal %v worse than greedy %v — impossible", optCost, tdCost)
	}
}

func TestTopDownOnCensusDeterminism(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 5, 18)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.CheckDeterminism(t, New(), tab, cfg)
}

func TestTopDownFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}
