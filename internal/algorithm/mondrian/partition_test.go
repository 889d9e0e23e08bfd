package mondrian

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
)

// constraintCases are the validity rules the region tests run under.
var constraintCases = []struct {
	name string
	set  func(*algorithm.Config)
}{
	{"k only", func(*algorithm.Config) {}},
	{"l=2", func(c *algorithm.Config) { c.MinLDiversity = 2 }},
	{"entropy l=1.5", func(c *algorithm.Config) { c.MinEntropyL = 1.5 }},
	{"recursive (3,2)", func(c *algorithm.Config) { c.RecursiveC, c.RecursiveL = 3, 2 }},
	{"t=0.3", func(c *algorithm.Config) { c.MaxTCloseness = 0.3 }},
}

// codeRegions runs the production partitioner on a validated table.
func codeRegions(m *Mondrian, t *dataset.Table, cfg algorithm.Config) ([][]int, error) {
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	p, err := m.newPartitioner(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	return p.run(context.Background())
}

// checkRegionsMatchReference requires the production partitioner and the
// row-path reference to fail with the same error or emit the same regions
// in the same order, each with the same rows in the same order.
func checkRegionsMatchReference(t *testing.T, label string, m *Mondrian, tab *dataset.Table, cfg algorithm.Config) {
	t.Helper()
	want, werr := referenceRegions(m, tab, cfg)
	got, gerr := codeRegions(m, tab, cfg)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: region %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

func TestCodeRegionsMatchReferenceOnCensus(t *testing.T) {
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 5, 10} {
				tab, base, err := algtest.CensusConfig(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range constraintCases {
					cfg := base
					c.set(&cfg)
					for _, m := range []*Mondrian{New(), NewRelaxed()} {
						label := fmt.Sprintf("%s N=%d seed=%d k=%d %s", m.Name(), n, seed, k, c.name)
						checkRegionsMatchReference(t, label, m, tab, cfg)
					}
				}
			}
		}
	}
}

// tiedTable draws n rows from small domains, so every cut meets long runs
// of tied values. Age is Numeric and holds -0 and +0, and Missing when
// missingAge is set; Zip is categorical and holds Missing. Every
// quasi-identifier has a suppression hierarchy, which accepts them all.
func tiedTable(t *testing.T, n int, seed int64, missingAge bool) (*dataset.Table, algorithm.Config) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Zip", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Sex", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Disease", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	ages := []dataset.Value{dataset.NumVal(math.Copysign(0, -1)), dataset.NumVal(0),
		dataset.NumVal(1), dataset.NumVal(2), dataset.NumVal(2.5), dataset.NumVal(-3)}
	if missingAge {
		ages = append(ages, dataset.Value{})
	}
	zips := []dataset.Value{dataset.StrVal("13051"), dataset.StrVal("13052"), dataset.StrVal("14850"), {}}
	sexes := []dataset.Value{dataset.StrVal("M"), dataset.StrVal("F")}
	diseases := []dataset.Value{dataset.StrVal("Flu"), dataset.StrVal("Cold"), dataset.StrVal("HIV"),
		dataset.StrVal("Cancer"), dataset.StrVal("Gastritis")}
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs []dataset.Value) dataset.Value { return vs[rng.Intn(len(vs))] }
	c := dataset.NewColumnar(schema)
	for i := 0; i < n; i++ {
		c.MustAppend(pick(ages), pick(zips), pick(sexes), pick(diseases))
	}
	hs, err := hierarchy.NewSet(algtest.NewSuppression("Age"), algtest.NewSuppression("Zip"),
		algtest.NewSuppression("Sex"))
	if err != nil {
		t.Fatal(err)
	}
	return c.Table(), algorithm.Config{K: 2, Hierarchies: hs, Metric: algorithm.MetricLM}
}

func TestCodeRegionsMatchReferenceOnTies(t *testing.T) {
	for _, missingAge := range []bool{false, true} {
		for _, n := range []int{40, 300} {
			for seed := int64(1); seed <= 4; seed++ {
				tab, base := tiedTable(t, n, seed, missingAge)
				for _, k := range []int{2, 3, 5} {
					for _, c := range constraintCases {
						cfg := base
						cfg.K = k
						c.set(&cfg)
						for _, m := range []*Mondrian{New(), NewRelaxed()} {
							label := fmt.Sprintf("%s missing-age=%v N=%d seed=%d k=%d %s",
								m.Name(), missingAge, n, seed, k, c.name)
							checkRegionsMatchReference(t, label, m, tab, cfg)
							checkReleaseMatchesRowPath(t, label, m, tab, cfg)
						}
					}
				}
			}
		}
	}
}

// TestMondrianRejectsNonFiniteNumbers: a NaN or ±Inf in a Numeric
// quasi-identifier has no finite hull; Mondrian must refuse it rather than
// release (NaN,NaN] cells, even when the hierarchy accepts the value.
func TestMondrianRejectsNonFiniteNumbers(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
	)
	hs, err := hierarchy.NewSet(algtest.NewSuppression("Age"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{K: 2, Hierarchies: hs}
	cases := map[string][]float64{
		"NaN":  {math.NaN(), 20, 30, 40, math.NaN(), 50, math.Inf(1), 10},
		"+Inf": {20, math.Inf(1), 30, 40},
		"-Inf": {20, 30, math.Inf(-1), 40},
	}
	for name, ages := range cases {
		c := dataset.NewColumnar(schema)
		for _, a := range ages {
			c.MustAppend(dataset.NumVal(a))
		}
		tab := c.Table()
		for _, m := range []*Mondrian{New(), NewRelaxed()} {
			r, err := m.Anonymize(tab, cfg)
			if err == nil {
				t.Errorf("%s %s: released %v, want an error", m.Name(), name, r.Table.Column(0))
			} else if !strings.Contains(err.Error(), "non-finite value") {
				t.Errorf("%s %s: error %v, want a non-finite value error", m.Name(), name, err)
			}
		}
	}
}

// TestStrictMondrianIsPermutationEquivariant: strict cuts fall only
// between distinct values, so the regions, and hence the release, do not
// depend on the input row order. Relaxed Mondrian splits tied runs in row
// order and is not equivariant.
func TestStrictMondrianIsPermutationEquivariant(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	for seed := int64(1); seed <= 3; seed++ {
		orig, base, err := algtest.CensusConfig(n, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		// Row i of orig is row perm[i] of the permuted copy.
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		at := make([]int, n)
		for i, p := range perm {
			at[p] = i
		}
		c := dataset.NewColumnar(orig.Schema)
		row := make([]dataset.Value, orig.Schema.Len())
		for p := 0; p < n; p++ {
			for j := range row {
				row[j] = orig.At(at[p], j)
			}
			if err := c.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		permuted := c.Table()
		for _, cs := range constraintCases {
			cfg := base
			cs.set(&cfg)
			want, err := New().Anonymize(orig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New().Anonymize(permuted, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range perm {
				for j := range row {
					if g, w := got.Table.At(p, j).Key(), want.Table.At(i, j).Key(); g != w {
						t.Fatalf("seed=%d %s: permuted row %d col %d = %q, original row %d has %q",
							seed, cs.name, p, j, g, i, w)
					}
				}
			}
		}
	}
}

// TestMondrianReportsCutAttempts: every cut adds one region, and every cut
// is one of the attempts whose validity was checked.
func TestMondrianReportsCutAttempts(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(1000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 3
	for _, m := range []*Mondrian{New(), NewRelaxed()} {
		r, err := m.Anonymize(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cuts, attempts := r.Stats["cuts"], r.Stats["cut_attempts"]
		if cuts != r.Stats["regions"]-1 {
			t.Errorf("%s: %v cuts for %v regions", m.Name(), cuts, r.Stats["regions"])
		}
		if cuts < 1 || attempts < cuts {
			t.Errorf("%s: %v cuts from %v attempts", m.Name(), cuts, attempts)
		}
	}
}
