package genetic

import (
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/privacy"
)

func TestGeneticWithLDiversityConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(250, 4, 52)
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

func TestGeneticWithTClosenessConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(250, 4, 53)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxTCloseness = 0.4
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
		if got > 0.4+1e-9 {
			t.Errorf("t-closeness %v exceeds 0.4", got)
		}
	}
}
