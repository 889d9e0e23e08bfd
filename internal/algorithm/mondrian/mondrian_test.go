package mondrian

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

func TestMondrianOnPaperTable(t *testing.T) {
	for _, alg := range []*Mondrian{New(), NewRelaxed()} {
		tab, cfg := algtest.PaperConfig(3)
		cfg.Taxonomies = nil
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		algtest.CheckResult(t, tab, cfg, r)
		algtest.KIsAchieved(t, r, 3)
		if r.Levels != nil {
			t.Errorf("%s is local recoding; Levels must be nil", alg.Name())
		}
		if r.Stats["regions"] < 2 {
			t.Errorf("%s: expected multiple regions on T1, got %v", alg.Name(), r.Stats["regions"])
		}
	}
}

func TestMondrianNames(t *testing.T) {
	if New().Name() != "mondrian" || NewRelaxed().Name() != "mondrian-relaxed" {
		t.Error("names mismatch")
	}
}

func TestMondrianOnCensus(t *testing.T) {
	for _, alg := range []*Mondrian{New(), NewRelaxed()} {
		tab, cfg, err := algtest.CensusConfig(500, 5, 9)
		if err != nil {
			t.Fatal(err)
		}
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		algtest.CheckResult(t, tab, cfg, r)
		algtest.CheckDeterminism(t, alg, tab, cfg)
		// Mondrian should beat single-node global recoding on class
		// granularity: many regions, each between k and (strict) ~2k-1
		// or exactly bounded for relaxed.
		for _, rows := range r.Partition.Classes {
			if len(rows) < cfg.K {
				t.Fatalf("%s: region smaller than k", alg.Name())
			}
		}
		if alg.Relaxed {
			for _, rows := range r.Partition.Classes {
				if len(rows) >= 2*cfg.K+2 {
					t.Errorf("relaxed region of size %d should have been cut (k=%d)", len(rows), cfg.K)
				}
			}
		}
	}
}

func TestMondrianRegionGeneralization(t *testing.T) {
	// Craft a table where one region must use taxonomy LCA, one common
	// prefix, one numeric hull.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Education", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Disease", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	c := dataset.NewColumnar(schema)
	c.MustAppend(dataset.NumVal(20), dataset.StrVal("13051"), dataset.StrVal("No-HS"), dataset.StrVal("Flu"))
	c.MustAppend(dataset.NumVal(30), dataset.StrVal("13052"), dataset.StrVal("HS-Grad"), dataset.StrVal("Flu"))
	tab, cfg, err := withCensusHierarchies(c.Table())
	if err != nil {
		t.Fatal(err)
	}
	cfg.K = 2
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Single region of 2: age hull (20,30], zip prefix 1305*, education
	// LCA "School".
	if got := r.Table.At(0, 0).String(); got != "(20,30]" {
		t.Errorf("age hull = %q", got)
	}
	if got := r.Table.At(0, 1).String(); got != "1305*" {
		t.Errorf("zip prefix = %q", got)
	}
	if got := r.Table.At(0, 2).String(); got != "School" {
		t.Errorf("education LCA = %q", got)
	}
}

func TestMondrianUniformColumnStaysExact(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	c := dataset.NewColumnar(schema)
	for i := 0; i < 4; i++ {
		c.MustAppend(dataset.NumVal(25), dataset.StrVal("13051"))
	}
	tab2, cfg, err := withCensusHierarchies(c.Table())
	if err != nil {
		t.Fatal(err)
	}
	cfg.K = 2
	r, err := New().Anonymize(tab2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Table.At(0, 0); !got.Equal(dataset.NumVal(25)) {
		t.Errorf("uniform age generalized to %v", got)
	}
	if got := r.Table.At(0, 1); !got.Equal(dataset.StrVal("13051")) {
		t.Errorf("uniform zip generalized to %v", got)
	}
}

func TestMondrianStrictVsRelaxedGranularity(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := NewRelaxed().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Relaxed always halves, so its leaf regions are tightly bounded and
	// the region count is at least N/(2k). Strict regions may be larger
	// (uncuttable value runs) but never smaller than k. Both must
	// partition far finer than a single global recoding.
	n := tab.Len()
	if relaxed.Partition.NumClasses() < n/(2*cfg.K) {
		t.Errorf("relaxed produced only %d regions for N=%d k=%d", relaxed.Partition.NumClasses(), n, cfg.K)
	}
	if strict.Partition.NumClasses() < 10 {
		t.Errorf("strict produced only %d regions", strict.Partition.NumClasses())
	}
}

func TestMondrianFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}

func TestMondrianPartitionMatchesTableSignature(t *testing.T) {
	// Regions must coincide with the equivalence classes of the recoded
	// table: re-partitioning by signature yields identical class sizes.
	tab, cfg, err := algtest.CensusConfig(300, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bySig, err := eqclass.FromTable(r.Table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Table.Len(); i++ {
		if bySig.Size(i) < r.Partition.Size(i) {
			t.Fatalf("row %d: signature class %d smaller than region %d", i, bySig.Size(i), r.Partition.Size(i))
		}
	}
}

// withCensusHierarchies attaches the census hierarchies/taxonomies config
// to a hand-built table.
func withCensusHierarchies(tab *dataset.Table) (*dataset.Table, algorithm.Config, error) {
	_, cfg, err := algtest.CensusConfig(10, 2, 1)
	if err != nil {
		return nil, cfg, err
	}
	return tab, cfg, nil
}
