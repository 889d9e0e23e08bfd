package attack

import (
	"math"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
)

func maritalTaxs() map[string]*hierarchy.Taxonomy {
	return map[string]*hierarchy.Taxonomy{"MaritalStatus": paperdata.MaritalTaxonomy()}
}

func TestNewAdversaryValidation(t *testing.T) {
	if _, err := NewAdversary(nil, nil); err == nil {
		t.Error("nil table should fail")
	}
	empty := dataset.NewColumnar(paperdata.Schema()).Table()
	if _, err := NewAdversary(empty, nil); err == nil {
		t.Error("empty table should fail")
	}
	noQIB := dataset.NewColumnar(dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.Sensitive}))
	noQIB.MustAppend(dataset.StrVal("x"))
	if _, err := NewAdversary(noQIB.Table(), nil); err == nil {
		t.Error("no-QI table should fail")
	}
}

func TestProsecutorRiskOnPaperTables(t *testing.T) {
	orig := paperdata.T1()
	// T3a: every individual matches exactly their class: risks are the
	// §1 breach probabilities 1/3 and 1/4.
	adv, err := NewAdversary(paperdata.T3a(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	risk, err := ProsecutorVector(orig, adv)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 3, 1.0 / 4, 1.0 / 4, 1.0 / 4, 1.0 / 3, 1.0 / 3, 1.0 / 4}
	for i := range want {
		if math.Abs(risk[i]-want[i]) > 1e-12 {
			t.Fatalf("T3a prosecutor risk = %v, want %v", risk, want)
		}
	}
	// T3b: the §1 observation — tuples {2,3,5,6,7,9,10} drop to 1/7.
	adv3b, err := NewAdversary(paperdata.T3b(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	risk3b, err := ProsecutorVector(orig, adv3b)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 4, 5, 6, 8, 9} {
		if math.Abs(risk3b[i]-1.0/7) > 1e-12 {
			t.Fatalf("T3b risk[%d] = %v, want 1/7", i, risk3b[i])
		}
	}
	// The anonymization guarantee: risk <= 1/k everywhere.
	for i, r := range risk3b {
		if r > 1.0/3+1e-12 {
			t.Errorf("risk[%d] = %v exceeds 1/k", i, r)
		}
	}
}

func TestMatchSetSemantics(t *testing.T) {
	adv, err := NewAdversary(paperdata.T3a(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	// Victim = tuple 1 of T1: zip 13053, age 28.
	matches, err := adv.MatchSet([]dataset.Value{dataset.StrVal("13053"), dataset.NumVal(28)})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Fatalf("matches = %v, want the 3 rows of class {1,4,8}", matches)
	}
	// A victim outside every generalized region matches nothing.
	matches, err = adv.MatchSet([]dataset.Value{dataset.StrVal("99999"), dataset.NumVal(28)})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("out-of-region victim matched %v", matches)
	}
	if _, err := adv.MatchSet([]dataset.Value{dataset.StrVal("13053")}); err == nil {
		t.Error("wrong victim width should fail")
	}
}

func TestSafetyAndMarketer(t *testing.T) {
	orig := paperdata.T1()
	adv, err := NewAdversary(paperdata.T3a(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	safety, err := SafetyVector(orig, adv)
	if err != nil {
		t.Fatal(err)
	}
	risk, _ := ProsecutorVector(orig, adv)
	for i := range safety {
		if math.Abs(safety[i]-(1-risk[i])) > 1e-12 {
			t.Fatal("safety != 1 - risk")
		}
	}
	m, err := MarketerRisk(orig, adv)
	if err != nil {
		t.Fatal(err)
	}
	// 6 tuples at 1/3, 4 at 1/4.
	want := (6.0/3 + 4.0/4) / 10
	if math.Abs(m-want) > 1e-12 {
		t.Errorf("marketer risk = %v, want %v", m, want)
	}
}

func TestTargetedRiskParagraph2Scenario(t *testing.T) {
	orig := paperdata.T1()
	adv3b, err := NewAdversary(paperdata.T3b(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	adv4, err := NewAdversary(paperdata.T4(), maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	// §2: user 8 (index 7) prefers T4; user 3 (index 2) prefers T3b.
	mean3b8, _, err := TargetedRisk(orig, adv3b, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	mean48, _, err := TargetedRisk(orig, adv4, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if !(mean48 < mean3b8) {
		t.Errorf("user 8: T4 risk %v should be below T3b risk %v", mean48, mean3b8)
	}
	mean3b3, _, err := TargetedRisk(orig, adv3b, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	mean43, _, err := TargetedRisk(orig, adv4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !(mean3b3 < mean43) {
		t.Errorf("user 3: T3b risk %v should be below T4 risk %v", mean3b3, mean43)
	}
	// Errors.
	if _, _, err := TargetedRisk(orig, adv4, nil); err == nil {
		t.Error("empty subset should fail")
	}
	if _, _, err := TargetedRisk(orig, adv4, []int{99}); err == nil {
		t.Error("out-of-range target should fail")
	}
}

func TestAttackAgainstMondrianRegions(t *testing.T) {
	// Local recodings must be attackable too: risk <= 1/k for every
	// individual, and the match set always contains the own record's
	// classmates.
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(), Taxonomies: generator.Taxonomies(),
	}
	r, err := mondrian.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	risk, err := ProsecutorVector(tab, adv)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range risk {
		if rr > 1.0/float64(cfg.K)+1e-12 {
			t.Fatalf("tuple %d risk %v exceeds 1/k", i, rr)
		}
	}
	// Match sets can only be LARGER than the equivalence class (regions
	// may overlap in value space), never smaller.
	sizes := privacy.ClassSizeVector(r.Partition)
	for i := 0; i < 25; i++ {
		matches, err := adv.MatchSet(victimOf(tab, tab.Schema.QuasiIdentifiers(), i))
		if err != nil {
			t.Fatal(err)
		}
		if float64(len(matches)) < sizes[i] {
			t.Fatalf("tuple %d: match set %d smaller than class %v", i, len(matches), sizes[i])
		}
	}
}

func TestJournalistVector(t *testing.T) {
	// Population = 3 copies of the sample draw (deterministic): every
	// sample signature occurs at least 3x in the population, so
	// journalist risk is bounded by prosecutor risk and usually lower.
	sample, err := generator.Generate(generator.Config{N: 150, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(sample); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{44, 45} {
		extra, err := generator.Generate(generator.Config{N: 150, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.AppendTable(extra); err != nil {
			t.Fatal(err)
		}
	}
	population := pc.Table()
	cfg := algorithm.Config{
		K: 4, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	r, err := mondrian.New().Anonymize(sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	journalist, err := JournalistVector(sample, population, adv)
	if err != nil {
		t.Fatal(err)
	}
	prosecutor, err := ProsecutorVector(sample, adv)
	if err != nil {
		t.Fatal(err)
	}
	lower := 0
	for i := range journalist {
		if journalist[i] > prosecutor[i]+1e-12 {
			t.Fatalf("journalist risk %v exceeds prosecutor %v at %d", journalist[i], prosecutor[i], i)
		}
		if journalist[i] < prosecutor[i]-1e-12 {
			lower++
		}
	}
	if lower == 0 {
		t.Error("a 3x population should lower at least one tuple's risk")
	}
	// Errors.
	if _, err := JournalistVector(sample, nil, adv); err == nil {
		t.Error("nil population should fail")
	}
	short := headRows(t, sample, 10)
	if _, err := JournalistVector(sample, short, adv); err == nil {
		t.Error("undersized population should fail")
	}
	if _, err := JournalistVector(short, population, adv); err == nil {
		t.Error("sample/anon size mismatch should fail")
	}
}

func TestInconsistentAnonymizationDetected(t *testing.T) {
	orig := paperdata.T1()
	// Replace every row's zip with a region that excludes the originals.
	t3a := paperdata.T3a()
	cols := t3a.Columns()
	zip, err := dataset.ColumnFromCodes([]dataset.Value{dataset.PrefixVal("9999", 1)}, make([]uint32, t3a.Len()))
	if err != nil {
		t.Fatal(err)
	}
	cols[0] = zip
	bogus, err := dataset.TableOf(t3a.Schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(bogus, maritalTaxs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProsecutorVector(orig, adv); err == nil {
		t.Error("inconsistent anonymization should be detected")
	}
	short := headRows(t, paperdata.T1(), 3)
	if _, err := ProsecutorVector(short, adv); err == nil {
		t.Error("size mismatch should fail")
	}
}

// headRows returns a table of tab's first n rows.
func headRows(t *testing.T, tab *dataset.Table, n int) *dataset.Table {
	t.Helper()
	cols := tab.Columns()
	for j, c := range cols {
		var err error
		if cols[j], err = dataset.ColumnFromCodes(c.Dict(), c.Codes()[:n]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := dataset.TableOf(tab.Schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
