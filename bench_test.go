package microdata

import (
	"fmt"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/moga"
	"microdata/internal/attack"
	"microdata/internal/core"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
	"microdata/internal/workload"
)

// One benchmark per paper artifact (DESIGN.md §3). Absolute times are
// machine-dependent; EXPERIMENTS.md records the reproduced numbers these
// benchmarks regenerate.

// BenchmarkTable1Load regenerates Table 1 (E1).
func BenchmarkTable1Load(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := paperdata.T1()
		if t.Len() != 10 {
			b.Fatal("bad fixture")
		}
	}
}

// BenchmarkTable2Generalize regenerates the two 3-anonymous tables (E2).
func BenchmarkTable2Generalize(b *testing.B) {
	t1 := paperdata.T1()
	hs := paperdata.Hierarchies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.GeneralizeTable(t1, hs, paperdata.LevelsT3a); err != nil {
			b.Fatal(err)
		}
		if _, err := hierarchy.GeneralizeTable(t1, hs, paperdata.LevelsT3b); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Generalize regenerates the 4-anonymous table (E3).
func BenchmarkTable3Generalize(b *testing.B) {
	t1 := paperdata.T1()
	hs := paperdata.Hierarchies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.GeneralizeTable(t1, hs, paperdata.LevelsT4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1ClassSizeVectors regenerates Figure 1's series (E4).
func BenchmarkFigure1ClassSizeVectors(b *testing.B) {
	tables := []*Table{paperdata.T3a(), paperdata.T3b(), paperdata.T4()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			p, err := eqclass.FromTable(t)
			if err != nil {
				b.Fatal(err)
			}
			if v := privacy.ClassSizeVector(p); len(v) != 10 {
				b.Fatal("bad vector")
			}
		}
	}
}

// BenchmarkTable4Dominance exercises the dominance comparators (E5).
func BenchmarkTable4Dominance(b *testing.B) {
	s, t, u := paperdata.ClassSizeT3a, paperdata.ClassSizeT3b, paperdata.ClassSizeT4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compare(t, s); err != nil {
			b.Fatal(err)
		}
		if _, err := core.Compare(u, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Rank exercises the ▶rank comparator (E6).
func BenchmarkFigure2Rank(b *testing.B) {
	dmax := make(core.PropertyVector, 10)
	for i := range dmax {
		dmax[i] = 10
	}
	cmp := core.RankBetter{Dmax: dmax}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.Compare(paperdata.ClassSizeT3b, paperdata.ClassSizeT4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3CovSpr computes the Figure 3 indices (E7).
func BenchmarkFigure3CovSpr(b *testing.B) {
	d1, d2 := paperdata.SpreadExampleD1, paperdata.SpreadExampleD2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := core.EvalBinary(core.PCov, d1, d2); v != 0.6 {
			b.Fatal("wrong coverage")
		}
		if v, _ := core.EvalBinary(core.PSpr, d1, d2); v != 4 {
			b.Fatal("wrong spread")
		}
	}
}

// BenchmarkFigure4Hypervolume computes the Figure 4 volumes (E8).
func BenchmarkFigure4Hypervolume(b *testing.B) {
	s, t := paperdata.HvExampleS, paperdata.HvExampleT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := core.EvalBinary(core.PHv, s, t); v != 56727 {
			b.Fatal("wrong hypervolume")
		}
	}
}

// BenchmarkSection3Indices computes the §3 worked indices (E9).
func BenchmarkSection3Indices(b *testing.B) {
	s, t := paperdata.ClassSizeT3a, paperdata.ClassSizeT3b
	counts := paperdata.SensitiveCountT3a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := core.EvalUnary(core.PKAnon, s); v != 3 {
			b.Fatal("wrong k")
		}
		if v, _ := core.EvalUnary(core.PSAvg, s); v != 3.4 {
			b.Fatal("wrong avg")
		}
		if v, _ := core.EvalUnary(core.PLDiv, counts); v != 1 {
			b.Fatal("wrong l")
		}
		if v, _ := core.EvalBinary(core.PBinary, t, s); v != 7 {
			b.Fatal("wrong binary")
		}
	}
}

// BenchmarkSection53Spread computes the §5.3 comparison (E10).
func BenchmarkSection53Spread(b *testing.B) {
	three, two := paperdata.SpreadThreeAnon, paperdata.SpreadTwoAnon
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := core.EvalBinary(core.PSpr, two, three); v != 8 {
			b.Fatal("wrong spread")
		}
	}
}

// BenchmarkSection55WTD computes the §5.5 weighted comparison (E11).
func BenchmarkSection55WTD(b *testing.B) {
	wtd, err := core.NewWTD([]float64{0.5, 0.5}, []core.BinaryIndex{core.PCov, core.PCov})
	if err != nil {
		b.Fatal(err)
	}
	y1 := core.PropertySet{paperdata.ClassSizeT3a, paperdata.UtilityT3a}
	y2 := core.PropertySet{paperdata.ClassSizeT3b, paperdata.UtilityT3b}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wtd.Compare(y1, y2)
		if err != nil || out != core.Tie {
			b.Fatal("expected the paper's tie")
		}
	}
}

// BenchmarkLexGoal exercises the §5.6–5.7 schemes (E12).
func BenchmarkLexGoal(b *testing.B) {
	lex, err := core.NewLEX([]float64{0.1, 0.1}, []core.BinaryIndex{core.PCov, core.PCov})
	if err != nil {
		b.Fatal(err)
	}
	goal, err := core.NewGOAL([]float64{1, 1}, []core.BinaryIndex{core.PCov, core.PCov})
	if err != nil {
		b.Fatal(err)
	}
	y1 := core.PropertySet{paperdata.ClassSizeT3b, paperdata.UtilityT3b}
	y2 := core.PropertySet{paperdata.ClassSizeT3a, paperdata.UtilityT3a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lex.Compare(y1, y2); err != nil {
			b.Fatal(err)
		}
		if _, err := goal.Compare(y1, y2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1Search runs the counterexample search (E13).
func BenchmarkTheorem1Search(b *testing.B) {
	panel := core.StandardPanel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ce, _, err := core.FindDominanceCounterexample(panel, 10, 10000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if ce == nil {
			b.Fatal("no counterexample")
		}
	}
}

// BenchmarkAlgorithms anonymizes the synthetic census with every algorithm
// (E14). Run with -benchtime=1x for a single comparison pass.
func BenchmarkAlgorithms(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K:              5,
		Hierarchies:    generator.Hierarchies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Taxonomies:     generator.Taxonomies(),
		Seed:           1,
	}
	for _, name := range AlgorithmNames() {
		alg, err := NewAlgorithm(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Anonymize(tab, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComparatorsAtScale measures the per-comparison cost on
// census-sized property vectors — the framework's practical overhead.
func BenchmarkComparatorsAtScale(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 2000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 10, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	algA, _ := NewAlgorithm("mondrian")
	algB, _ := NewAlgorithm("datafly")
	ra, err := algA.Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rb, err := algB.Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	va := core.PropertyVector(privacy.ClassSizeVector(ra.Partition))
	vb := core.PropertyVector(privacy.ClassSizeVector(rb.Partition))
	dmax := make(core.PropertyVector, tab.Len())
	for i := range dmax {
		dmax[i] = float64(tab.Len())
	}
	for _, c := range []core.Comparator{
		core.CovBetter(), core.SprBetter(), core.HvLogBetter(),
		core.RankBetter{Dmax: dmax}, core.MinBetter(),
	} {
		b.Run(c.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Compare(va, vb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGAAblation compares the two crossover operators (E15).
func BenchmarkGAAblation(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Metric: algorithm.MetricLM,
		Taxonomies: generator.Taxonomies(), Seed: 1,
	}
	for _, alg := range []algorithm.Algorithm{genetic.New(), genetic.NewConstrained()} {
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Anonymize(tab, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParetoFront measures the §7 multi-objective explorers (E16).
func BenchmarkParetoFront(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 1, Hierarchies: generator.Hierarchies(),
		Taxonomies: generator.Taxonomies(), Seed: 7,
	}
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := moga.ExhaustiveFront(tab, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nsga2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&moga.NSGA2{}).Explore(tab, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNonDominance measures pairwise dominance classification over
// minimal k-anonymous releases (E19).
func BenchmarkNonDominance(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(), Taxonomies: generator.Taxonomies(),
	}
	minimal, _, err := incognito.New().MinimalNodes(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var vectors []core.PropertyVector
	for _, n := range minimal {
		_, p, small, err := algorithm.ApplyNode(tab, cfg, n)
		if err != nil {
			b.Fatal(err)
		}
		if len(small) == 0 {
			vectors = append(vectors, core.PropertyVector(p.SizeVector()))
		}
	}
	if len(vectors) < 2 {
		b.Skip("too few minimal nodes")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := 0; a < len(vectors); a++ {
			for c := a + 1; c < len(vectors); c++ {
				if _, err := core.Compare(vectors[a], vectors[c]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAttack measures the record-linkage risk computation (E17). A
// fresh adversary per iteration charges index construction and the
// table's resolution to the measurement (the prosecutor vector is cached
// per adversary, so reusing one would time the cache copy).
func BenchmarkAttack(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 400, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	alg, _ := NewAlgorithm("mondrian")
	r, err := alg.Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv, err := attack.NewAdversary(r.Table, generator.Taxonomies())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := attack.ProsecutorVector(tab, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// attackBenchRelease anonymizes an N-row census draw for the attack
// benchmarks below.
func attackBenchRelease(b *testing.B, n int) (tab *Table, anon *Table) {
	b.Helper()
	tab, err := generator.Generate(generator.Config{N: n, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	alg, _ := NewAlgorithm("mondrian")
	r, err := alg.Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tab, r.Table
}

// BenchmarkProsecutorVector compares the naive row-scanning prosecutor
// pipeline against the region-indexed one. The indexed variant rebuilds
// the adversary every iteration so index construction and the table's
// resolution are charged to the measurement.
func BenchmarkProsecutorVector(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tab, anon := attackBenchRelease(b, n)
		naiveAdv, err := attack.NewAdversary(anon, generator.Taxonomies())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := attack.NaiveProsecutorVector(tab, naiveAdv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := attack.NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := attack.ProsecutorVector(tab, adv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalistVector compares the naive per-victim population scan
// against the inverted, dictionary-resolved journalist pipeline.
// Population = 2× sample. The naive variant at N=10000 takes tens of
// seconds per iteration; use -benchtime=1x or a -bench filter for quick
// runs.
func BenchmarkJournalistVector(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tab, anon := attackBenchRelease(b, n)
		extra, err := generator.Generate(generator.Config{N: n, Seed: 18})
		if err != nil {
			b.Fatal(err)
		}
		pc := NewColumnar(tab.Schema)
		if err := pc.AppendTable(tab, extra); err != nil {
			b.Fatal(err)
		}
		population := pc.Table()
		naiveAdv, err := attack.NewAdversary(anon, generator.Taxonomies())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := attack.NaiveJournalistVector(tab, population, naiveAdv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := attack.NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := attack.JournalistVector(tab, population, adv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkload measures one release's query-workload evaluation
// (E18) against a workload prepared once.
func BenchmarkWorkload(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 600, Seed: 18})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 10, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	alg, _ := NewAlgorithm("mondrian")
	r, err := alg.Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := workload.Generate(tab, workload.Config{Queries: 100, Predicates: 2, Seed: 18})
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := workload.Prepare(tab, queries, generator.Taxonomies())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Evaluate(r.Table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartition measures equivalence-class computation across sizes —
// the hot path under every experiment.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		tab, err := generator.Generate(generator.Config{N: n, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		anon, err := hierarchy.GeneralizeTable(tab, generator.Hierarchies(), []int{2, 2, 1, 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eqclass.FromTable(anon); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
