package optimal

import (
	"math"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/lattice"
)

func TestOptimalOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	// The sweep must touch the full lattice: 6 zip levels x 5 age levels.
	if got := r.Stats["nodes_evaluated"]; got != 30 {
		t.Errorf("evaluated %v nodes, want 30", got)
	}
}

func TestOptimalIsNoWorseThanHeuristics(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	opt, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := algorithm.ResultCost(opt, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []algorithm.Algorithm{datafly.New(), samarati.New()} {
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		c, err := algorithm.ResultCost(r, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if optCost > c+1e-12 {
			t.Errorf("optimal cost %v worse than %s cost %v", optCost, alg.Name(), c)
		}
	}
}

func TestOptimalAgainstBruteForceOnCensus(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(150, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	// Re-verify by brute force: no feasible node has lower cost.
	ml, _ := cfg.Hierarchies.MaxLevels(tab.Schema)
	lat, err := lattice.New(ml)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	lat.All(func(n lattice.Node) bool {
		c, err := algtest.NodeCost(tab, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if c < best {
			best = c
		}
		return true
	})
	got, err := algorithm.ResultCost(r, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-best) > 1e-9 {
		t.Errorf("optimal returned cost %v, brute force found %v", got, best)
	}
}

func TestOptimalMetrics(t *testing.T) {
	for _, m := range []algorithm.Metric{algorithm.MetricLM, algorithm.MetricDM, algorithm.MetricPrec} {
		tab, cfg := algtest.PaperConfig(3)
		cfg.Metric = m
		r, err := New().Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		algtest.CheckResult(t, tab, cfg, r)
	}
}

func TestOptimalFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}
