package samarati

import (
	"slices"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/lattice"
)

func TestSamaratiOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	// The paper's T3a sits at node [1 1] (height 2) and is 3-anonymous
	// with no suppression, so the minimal satisfying height is at most 2.
	if h := r.Stats["minimal_height"]; h > 2 {
		t.Errorf("minimal height = %v, but [1 1] already satisfies k=3", h)
	}
	if r.Levels.Height() != int(r.Stats["minimal_height"]) {
		t.Errorf("returned node %v not at reported minimal height %v", r.Levels, r.Stats["minimal_height"])
	}
}

func TestSamaratiFindsHeightZeroForK1(t *testing.T) {
	tab, cfg := algtest.PaperConfig(1)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Levels, lattice.Node{0, 0}) {
		t.Errorf("k=1 should return the bottom node, got %v", r.Levels)
	}
}

func TestSamaratiImpossibleK(t *testing.T) {
	// k equals table size: only the single-class generalizations work;
	// with k > N the config validator rejects, with k = N the top node
	// merges everything into one class of size N and must succeed.
	tab, cfg := algtest.PaperConfig(10)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
}

func TestSamaratiOnCensus(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.CheckDeterminism(t, New(), tab, cfg)
	if r.Stats["nodes_evaluated"] < 1 {
		t.Error("stats missing nodes_evaluated")
	}
}

func TestSamaratiMetricChoiceAffectsNode(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metric = algorithm.MetricLM
	rLM, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metric = algorithm.MetricDM
	rDM, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heights must agree (the minimal height is metric-independent).
	if rLM.Levels.Height() != rDM.Levels.Height() {
		t.Errorf("minimal height differs across metrics: %v vs %v", rLM.Levels, rDM.Levels)
	}
}

func TestSamaratiFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}
