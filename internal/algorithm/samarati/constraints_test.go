package samarati

import (
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/privacy"
)

func TestSamaratiWithLDiversityConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 51)
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
	// Constrained minimal height can only be at or above the plain one.
	plain := cfg
	plain.MinLDiversity = 0
	r0, err := New().Anonymize(tab, plain)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats["minimal_height"] < r0.Stats["minimal_height"] {
		t.Errorf("constrained height %v below unconstrained %v",
			r.Stats["minimal_height"], r0.Stats["minimal_height"])
	}
}
