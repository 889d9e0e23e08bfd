package genetic

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/optimal"
)

func TestGeneticOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	cfg.Seed = 1
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	// Fitness is memoized by node, so the paper's 30-node lattice allows
	// at most 30 true evaluations — and a healthy run explores most of it.
	if e := r.Stats["fitness_evaluations"]; e < 10 || e > 30 {
		t.Errorf("evaluations = %v, want within (10, 30]", e)
	}
}

func TestGeneticFindsOptimumOnSmallLattice(t *testing.T) {
	// The paper lattice has only 30 nodes; with 40x60 evaluations the GA
	// must find the global optimum.
	tab, cfg := algtest.PaperConfig(3)
	cfg.Seed = 2
	opt, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	optCost, _ := algorithm.ResultCost(opt, tab, cfg)
	ga, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gaCost, _ := algorithm.ResultCost(ga, tab, cfg)
	if gaCost > optCost+1e-9 {
		t.Errorf("GA cost %v worse than optimal %v on a 30-node lattice", gaCost, optCost)
	}
}

func TestGeneticSeedDeterminism(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(200, 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckDeterminism(t, New(), tab, cfg)
	// Different seeds may reach different nodes (stochastic search), but
	// both must be feasible.
	cfg.Seed = 99
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
}

func TestConstrainedCrossoverVariant(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(200, 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	alg := NewConstrained()
	if alg.Name() != "genetic-constrained" {
		t.Errorf("name = %q", alg.Name())
	}
	r, err := alg.Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	if Crossover(0).String() != "uniform" || ConstrainedCrossover.String() != "constrained" {
		t.Error("Crossover.String mismatch")
	}
}

func TestGeneticRunsFixedGenerations(t *testing.T) {
	tab, cfg := algtest.PaperConfig(2)
	cfg.Seed = 3
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	if r.Stats["generations"] != 60 {
		t.Errorf("generations = %v, want 60", r.Stats["generations"])
	}
}

func TestGeneticFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}
