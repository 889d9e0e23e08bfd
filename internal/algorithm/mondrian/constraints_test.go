package mondrian

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/privacy"
)

func TestMondrianWithLDiversityConstraint(t *testing.T) {
	for _, alg := range []*Mondrian{New(), NewRelaxed()} {
		tab, cfg, err := algtest.CensusConfig(400, 4, 24)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MinLDiversity = 2
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		algtest.CheckResult(t, tab, cfg, r)
		col := tab.ColumnVector(tab.Schema.SensitiveIndex())
		h, err := r.Partition.Histograms(col)
		if err != nil {
			t.Fatal(err)
		}
		if l := privacy.DistinctLDiversity(h); l < 2 {
			t.Fatalf("%s: result is %d-diverse, want 2", alg.Name(), l)
		}
		// The constraint must cost granularity: no more regions than the
		// unconstrained run.
		cfg.MinLDiversity = 0
		r0, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Partition.NumClasses() > r0.Partition.NumClasses() {
			t.Errorf("%s: constrained run has MORE regions (%d) than unconstrained (%d)",
				alg.Name(), r.Partition.NumClasses(), r0.Partition.NumClasses())
		}
	}
}

func TestMondrianWithTClosenessConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxTCloseness = 0.4
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
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
		t.Errorf("t-closeness %v exceeds the 0.4 bound", got)
	}
}

func TestMondrianWithEntropyLConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 4, 28)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinEntropyL = 1.8
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	col := tab.ColumnVector(tab.Schema.SensitiveIndex())
	h, err := r.Partition.Histograms(col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := privacy.EntropyLDiversity(h)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.8-1e-9 {
		t.Errorf("entropy ℓ = %v, want >= 1.8", got)
	}
}

func TestMondrianWithRecursiveCLConstraint(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecursiveC = 3
	cfg.RecursiveL = 2
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
	bad, err := algorithm.ViolatingClasses(r.Partition, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci, b := range bad {
		if b {
			t.Fatalf("result class %d not (3,2)-diverse", ci)
		}
	}
}

func TestMondrianImpossibleConstraintFails(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(100, 2, 26)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 99 // beyond the data's distinct sensitive values
	if _, err := New().Anonymize(tab, cfg); err == nil {
		t.Error("impossible ℓ requirement should fail (Mondrian cannot suppress)")
	}
}
