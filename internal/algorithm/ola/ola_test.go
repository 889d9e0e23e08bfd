package ola

import (
	"math"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/lattice"
)

func TestOLAOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	algtest.KIsAchieved(t, r, 3)
	if r.Stats["nodes_evaluated"] < 1 || r.Stats["nodes_tagged"] < r.Stats["nodes_evaluated"] {
		t.Errorf("stats = %v", r.Stats)
	}
}

// On nested ladders with zero suppression, LM is strictly monotone along
// the lattice, so the utility optimum among satisfying nodes sits at a
// k-minimal node — OLA must match the exhaustive search exactly.
func TestOLAMatchesOptimalOnNestedLadders(t *testing.T) {
	for _, seed := range []int64{91, 92, 93} {
		tab, cfg, err := algtest.CensusConfig(250, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxSuppression = 0
		olaRes, err := New().Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		optRes, err := optimal.New().Anonymize(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		olaCost, _ := algorithm.ResultCost(olaRes, tab, cfg)
		optCost, _ := algorithm.ResultCost(optRes, tab, cfg)
		if math.Abs(olaCost-optCost) > 1e-9 {
			t.Errorf("seed %d: OLA cost %v != optimal %v (nodes: %v vs %v)",
				seed, olaCost, optCost, olaRes.Levels, optRes.Levels)
		}
		// And it must do so with FEWER direct evaluations than the full
		// lattice (predictive tagging is the point).
		ml, _ := cfg.Hierarchies.MaxLevels(tab.Schema)
		lat, err := lattice.New(ml)
		if err != nil {
			t.Fatal(err)
		}
		full := lat.Size()
		if int(olaRes.Stats["nodes_evaluated"]) >= full {
			t.Errorf("seed %d: OLA evaluated %v of %d nodes — tagging saved nothing",
				seed, olaRes.Stats["nodes_evaluated"], full)
		}
	}
}

func TestOLAWithSuppressionBudget(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 8, 94)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
}

func TestOLAWithConstraints(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 95)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 2
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
}

func TestOLADeterminism(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(250, 5, 96)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckDeterminism(t, New(), tab, cfg)
}

func TestOLAFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
	// Impossible constraints fail cleanly.
	tab, cfg, err := algtest.CensusConfig(100, 2, 97)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 99
	cfg.MaxSuppression = 0
	if _, err := New().Anonymize(tab, cfg); err == nil {
		t.Error("impossible constraints should fail")
	}
}
