package engine_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/eqclass"
	"microdata/internal/freqset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// TestEngineMatchesDirectPipeline pins the tentpole guarantee: for EVERY
// node of the lattice, the engine's constraint verdict, violating row
// count and cost are bit-identical to the direct ApplyNode/algtest.NodeCost
// pipeline — across k-anonymity, ℓ-diversity (distinct, entropy and
// recursive variants) and t-closeness, under all three utility metrics,
// with and without a suppression budget, and on an interval ladder whose
// levels do not nest. Each case sweeps the lattice in ascending,
// descending and shuffled order on fresh engines, so nodes are rolled up
// from different sources; every order must agree with the direct values.
// RowPartition must reproduce ApplyNode's partition, class order included.
func TestEngineMatchesDirectPipeline(t *testing.T) {
	paper, paperCfg := algtest.PaperConfig(3)
	census, censusCfg, err := algtest.CensusConfig(120, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Age widths 3 then 5: a width-3 bucket such as (3,6] straddles the
	// width-5 boundary at 5, so level 2 cannot roll up from level 1.
	nonNested := hierarchy.MustSet(
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 3, Origin: 0},
			hierarchy.IntervalLevel{Width: 5, Origin: 0},
		),
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		generator.EducationTaxonomy(),
		generator.MaritalTaxonomy(),
	)
	// At N=400 classes hold several sensitive values, so a check that
	// sorted a shared histogram in place would corrupt the later checks
	// and roll-ups of the combined-constraint cases.
	census400, census400Cfg, err := algtest.CensusConfig(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tab  *dataset.Table
		mut  func(*algorithm.Config)
	}{
		{"paper-k3-lm", paper, func(c *algorithm.Config) { *c = paperCfg }},
		{"paper-k3-dm", paper, func(c *algorithm.Config) { *c = paperCfg; c.Metric = algorithm.MetricDM }},
		{"paper-k3-prec", paper, func(c *algorithm.Config) { *c = paperCfg; c.Metric = algorithm.MetricPrec }},
		{"census-k3-lm", census, func(c *algorithm.Config) { *c = censusCfg }},
		{"census-k3-dm", census, func(c *algorithm.Config) { *c = censusCfg; c.Metric = algorithm.MetricDM }},
		{"census-k3-prec", census, func(c *algorithm.Config) { *c = censusCfg; c.Metric = algorithm.MetricPrec }},
		{"census-ldiv", census, func(c *algorithm.Config) { *c = censusCfg; c.MinLDiversity = 2 }},
		{"census-entropy", census, func(c *algorithm.Config) { *c = censusCfg; c.MinEntropyL = 1.2 }},
		{"census-recursive", census, func(c *algorithm.Config) { *c = censusCfg; c.RecursiveC = 2; c.RecursiveL = 2 }},
		{"census-tclose", census, func(c *algorithm.Config) { *c = censusCfg; c.MaxTCloseness = 0.6 }},
		{"census400-diverse-dm", census400, func(c *algorithm.Config) {
			*c = census400Cfg
			c.Metric = algorithm.MetricDM
			c.MinLDiversity = 2
			c.MinEntropyL = 1.5
		}},
		{"census400-tclose-recursive-lm", census400, func(c *algorithm.Config) {
			*c = census400Cfg
			c.MaxTCloseness = 0.6
			c.RecursiveC = 2
			c.RecursiveL = 2
		}},
		{"census-nosupp-dm", census, func(c *algorithm.Config) { *c = censusCfg; c.MaxSuppression = 0; c.Metric = algorithm.MetricDM }},
		{"census-nonnested-lm", census, func(c *algorithm.Config) { *c = censusCfg; c.Hierarchies = nonNested }},
		{"census-nonnested-ldiv-dm", census, func(c *algorithm.Config) {
			*c = censusCfg
			c.Hierarchies = nonNested
			c.MinLDiversity = 2
			c.Metric = algorithm.MetricDM
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var cfg algorithm.Config
			tc.mut(&cfg)
			ref, err := engine.New(tc.tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			budget := cfg.Budget(tc.tab.Len())
			ctx := context.Background()
			type direct struct {
				bad     int
				cost    float64
				costErr error
			}
			nodes := ref.Lattice().Nodes()
			want := map[string]direct{}
			for _, n := range nodes {
				_, p, small, err := algorithm.ApplyNode(tc.tab, cfg, n)
				if err != nil {
					t.Fatalf("node %v: direct ApplyNode: %v", n, err)
				}
				c, cerr := algtest.NodeCost(tc.tab, cfg, n)
				want[n.Key()] = direct{bad: len(small), cost: c, costErr: cerr}
				ev, err := ref.Evaluate(ctx, n)
				if err != nil {
					t.Fatalf("node %v: engine: %v", n, err)
				}
				rp, err := ev.RowPartition()
				if err != nil {
					t.Fatalf("node %v: row partition: %v", n, err)
				}
				if !reflect.DeepEqual(p.Classes, rp.Classes) || !reflect.DeepEqual(p.ClassOf, rp.ClassOf) {
					t.Fatalf("node %v: row partitions differ:\ndirect %v\nengine %v", n, p.Classes, rp.Classes)
				}
			}
			for _, order := range sweepOrders(nodes) {
				eng, err := engine.New(tc.tab, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range order.nodes {
					w := want[n.Key()]
					ev, err := eng.Evaluate(ctx, n)
					if err != nil {
						t.Fatalf("%s node %v: engine: %v", order.name, n, err)
					}
					if ev.BadRows != w.bad {
						t.Fatalf("%s node %v: %d violating rows, direct %d", order.name, n, ev.BadRows, w.bad)
					}
					if ev.Satisfies != (w.bad <= budget) {
						t.Fatalf("%s node %v: verdict %v, direct says %v", order.name, n, ev.Satisfies, w.bad <= budget)
					}
					gotCost, gotErr := ev.Cost()
					if (w.costErr == nil) != (gotErr == nil) {
						t.Fatalf("%s node %v: cost errors differ: direct %v, engine %v", order.name, n, w.costErr, gotErr)
					}
					if w.costErr == nil && math.Float64bits(w.cost) != math.Float64bits(gotCost) {
						// Exact bit equality is intentional: the engine must
						// replicate the direct pipeline's arithmetic.
						t.Fatalf("%s node %v: cost %v != direct %v", order.name, n, gotCost, w.cost)
					}
				}
			}
		})
	}
}

// TestVerdictLeavesSharedSetsIntact sweeps a lattice under every
// histogram check at once (distinct, entropy and recursive ℓ, t-closeness)
// on a store whose sets were all rolled up beforehand, and requires every
// set to be unchanged afterwards: the entropy and recursive checks sort
// their argument in place, and cached sets are shared read-only state.
func TestVerdictLeavesSharedSetsIntact(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MinLDiversity = 2
	cfg.MinEntropyL = 1.5
	cfg.RecursiveC, cfg.RecursiveL = 2, 2
	cfg.MaxTCloseness = 0.6
	cfg.Store = freqset.New(tab, cfg.Hierarchies, cfg.Taxonomies)
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := eng.Lattice().Nodes()
	before := make([]freqset.Set, len(nodes))
	for i, n := range nodes {
		fs, _, err := cfg.Store.Get(n, true)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = freqset.Set{Levels: fs.Levels, Count: slices.Clone(fs.Count), Histograms: eqclass.Histograms{
			Off: slices.Clone(fs.Off), Sens: slices.Clone(fs.Sens), Hist: slices.Clone(fs.Hist)}}
		for _, codes := range fs.Codes {
			before[i].Codes = append(before[i].Codes, slices.Clone(codes))
		}
	}
	if _, err := eng.EvaluateAll(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		fs, _, err := cfg.Store.Get(n, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*fs, before[i]) {
			t.Fatalf("node %v: evaluation changed the shared frequency set", n)
		}
	}
}

type sweepOrder struct {
	name  string
	nodes []lattice.Node
}

// sweepOrders returns the nodes by ascending height, by descending height
// and shuffled.
func sweepOrders(nodes []lattice.Node) []sweepOrder {
	asc := append([]lattice.Node(nil), nodes...)
	sort.SliceStable(asc, func(i, j int) bool { return asc[i].Height() < asc[j].Height() })
	desc := make([]lattice.Node, len(asc))
	for i, n := range asc {
		desc[len(asc)-1-i] = n
	}
	shuffled := append([]lattice.Node(nil), nodes...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return []sweepOrder{{"ascending", asc}, {"descending", desc}, {"shuffled", shuffled}}
}

// TestEngineMatchesDirectOnLargerBudget stresses the suppressed-partition
// path: a generous budget makes many nodes admissible WITH suppressed rows,
// so DM must rebuild the post-suppression partition and LM must charge the
// suppressed rows as all-stars — both byte-identical to the direct path.
func TestEngineMatchesDirectOnLargerBudget(t *testing.T) {
	census, cfg, err := algtest.CensusConfig(90, 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0.25
	for _, m := range []algorithm.Metric{algorithm.MetricLM, algorithm.MetricDM} {
		cfg.Metric = m
		eng, err := engine.New(census, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range eng.Lattice().Nodes() {
			ev, err := eng.Evaluate(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			wantCost, wantErr := algtest.NodeCost(census, cfg, n)
			gotCost, gotErr := ev.Cost()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v node %v: cost errors differ: %v vs %v", m, n, wantErr, gotErr)
			}
			if wantErr == nil && wantCost != gotCost {
				t.Fatalf("%v node %v: cost %v != direct %v", m, n, gotCost, wantCost)
			}
		}
	}
}
