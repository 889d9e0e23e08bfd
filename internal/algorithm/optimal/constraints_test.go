package optimal

import (
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/privacy"
)

func TestOptimalWithLDiversityConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 3
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	if len(r.Suppressed) == 0 {
		// Fully retained: the partition itself must be 3-diverse.
		col := tab.ColumnVector(tab.Schema.SensitiveIndex())
		h, err := r.Partition.Histograms(col)
		if err != nil {
			t.Fatal(err)
		}
		if l := privacy.DistinctLDiversity(h); l < 3 {
			t.Fatalf("result is %d-diverse, want 3", l)
		}
	}
	// The constrained optimum can never be cheaper than the unconstrained
	// one (smaller feasible set).
	unconstrained := cfg
	unconstrained.MinLDiversity = 0
	r0, err := New().Anonymize(tab, unconstrained)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Stats["best_cost"] > r.Stats["best_cost"]+1e-12 {
		t.Errorf("unconstrained cost %v > constrained %v", r0.Stats["best_cost"], r.Stats["best_cost"])
	}
}

func TestOptimalWithTClosenessConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxTCloseness = 0.35
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
		got, err := privacy.TCloseness(h, privacy.NewSupport(col, false))
		if err != nil {
			t.Fatal(err)
		}
		if got > 0.35+1e-9 {
			t.Errorf("t-closeness %v exceeds the 0.35 bound", got)
		}
	}
}

func TestOptimalImpossibleConstraintFails(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(100, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	// More distinct sensitive values than exist in the data: infeasible
	// at every node even with full generalization.
	cfg.MinLDiversity = 99
	cfg.MaxSuppression = 0
	if _, err := New().Anonymize(tab, cfg); err == nil {
		t.Error("impossible ℓ requirement should fail")
	}
}
