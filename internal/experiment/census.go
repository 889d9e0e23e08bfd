package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/bottomup"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/algorithm/topdown"
	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/freqset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/privacy"
	"microdata/internal/stats"
	"microdata/internal/utility"
)

// suite returns the full algorithm roster for the scaled comparisons.
func suite() []algorithm.Algorithm {
	return []algorithm.Algorithm{
		bottomup.New(),
		datafly.New(),
		samarati.New(),
		incognito.New(),
		optimal.New(),
		mondrian.New(),
		mondrian.NewRelaxed(),
		muargus.New(),
		ola.New(),
		genetic.New(),
		topdown.New(),
	}
}

// census is one seeded census draw with the scope every configuration over
// it shares: one hierarchy set, one taxonomy map and one frequency-set
// store, so each lattice node is rolled up once per draw, whichever k,
// metric or algorithm asks for it.
type census struct {
	tab   *dataset.Table
	hs    hierarchy.Set
	tax   map[string]*hierarchy.Taxonomy
	store *freqset.Store
}

func drawCensus(opts Options) (*census, error) {
	tab, err := generator.Generate(generator.Config{N: opts.CensusN, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	hs, tax := generator.Hierarchies(), generator.Taxonomies()
	return &census{tab: tab, hs: hs, tax: tax, store: freqset.New(tab, hs, tax, 0)}, nil
}

// config is the algorithm configuration the scaled experiments (E14, E15,
// E17, E18) use — captures must match them so the sealed measures certify
// the same runs the tables print.
func (c *census) config(opts Options, k int) algorithm.Config {
	return algorithm.Config{
		K:              k,
		Hierarchies:    c.hs,
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Taxonomies:     c.tax,
		Seed:           opts.Seed,
		Store:          c.store,
	}
}

// runSuite anonymizes with every algorithm concurrently (each algorithm is
// pure over its read-only inputs) and returns results in roster order; a
// failed algorithm yields a nil slot plus its error.
func runSuite(ctx context.Context, tab *dataset.Table, cfg algorithm.Config) ([]*algRun, []error) {
	algs := suite()
	runs := make([]*algRun, len(algs))
	errs := make([]error, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg algorithm.Algorithm) {
			defer wg.Done()
			runs[i], errs[i] = runAlg(ctx, alg, tab, cfg)
		}(i, alg)
	}
	wg.Wait()
	return runs, errs
}

// runOneAlg anonymizes and gathers every measurement E14 reports.
type algRun struct {
	name       string
	result     *algorithm.Result
	classSizes core.PropertyVector
	utilVec    core.PropertyVector
	kActual    int
	distinctL  int
	entropyL   float64
	tClose     float64
	lm         float64
	dm         float64
	cavg       float64
	prec       float64 // NaN for local recodings
}

func runAlg(ctx context.Context, alg algorithm.Algorithm, tab *dataset.Table, cfg algorithm.Config) (*algRun, error) {
	r, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	sensIdx := tab.Schema.SensitiveIndex()
	sensitive := tab.Column(sensIdx)
	lossCfg := utility.LossConfig{Taxonomies: cfg.Taxonomies}
	u, err := utility.UtilityVector(r.Table, tab, lossCfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	lm, err := utility.GeneralLossMetric(r.Table, tab, lossCfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	distinctL, err := privacy.DistinctLDiversity(r.Partition, sensitive)
	if err != nil {
		return nil, err
	}
	entropyL, err := privacy.EntropyLDiversity(r.Partition, sensitive)
	if err != nil {
		return nil, err
	}
	tClose, err := privacy.TCloseness(r.Partition, sensitive, false)
	if err != nil {
		return nil, err
	}
	cavg, err := utility.AverageClassSizeMetric(r.Partition, cfg.K)
	if err != nil {
		return nil, err
	}
	prec := math.NaN()
	if r.Levels != nil {
		prec, err = utility.Precision(tab.Schema, cfg.Hierarchies, r.Levels)
		if err != nil {
			return nil, err
		}
	}
	return &algRun{
		name:       alg.Name(),
		result:     r,
		classSizes: privacy.ClassSizeVector(r.Partition),
		utilVec:    u,
		kActual:    privacy.KAnonymity(r.Partition),
		distinctL:  distinctL,
		entropyL:   entropyL,
		tClose:     tClose,
		lm:         lm,
		dm:         utility.DiscernibilityMetric(r.Partition),
		cavg:       cavg,
		prec:       prec,
	}, nil
}

// e14 is the scaled algorithm comparison.
func e14(opts Options) Experiment {
	return Experiment{
		ID: "E14", Title: "algorithm comparison on synthetic census", Artifact: "§1–2 at scale",
		Run: func(ctx context.Context, w io.Writer) error {
			c, err := drawCensus(opts)
			if err != nil {
				return err
			}
			tab := c.tab
			fmt.Fprintf(w, "synthetic census: N=%d seed=%d\n", opts.CensusN, opts.Seed)

			midK := opts.Ks[len(opts.Ks)/2]
			var midRuns []*algRun
			for _, k := range opts.Ks {
				cfg := c.config(opts, k)
				fmt.Fprintf(w, "\n--- k = %d ---\n", k)
				fmt.Fprintf(w, "  %-20s %7s %7s %8s %6s %8s %10s %7s %7s %6s %7s %8s\n",
					"algorithm", "k_act", "classes", "suppr", "LM", "DM", "C_avg", "Prec", "l_dist", "l_ent", "t_close", "Gini")
				var runs []*algRun
				rawRuns, errs := runSuite(ctx, tab, cfg)
				for ri, ar := range rawRuns {
					if errs[ri] != nil {
						fmt.Fprintf(w, "  %-20s failed: %v\n", suite()[ri].Name(), errs[ri])
						continue
					}
					runs = append(runs, ar)
					g, gerr := stats.Gini(ar.classSizes)
					gs := "-"
					if gerr == nil {
						gs = trim(g)
					}
					precStr := "-"
					if !math.IsNaN(ar.prec) {
						precStr = trim(ar.prec)
					}
					fmt.Fprintf(w, "  %-20s %7d %7d %8d %6s %8s %10s %7s %7d %6s %7s %8s\n",
						ar.name, ar.kActual, ar.result.Partition.NumClasses(),
						len(ar.result.Suppressed), trim(ar.lm), trim(ar.dm), trim(ar.cavg),
						precStr, ar.distinctL, trim(ar.entropyL), trim(ar.tClose), gs)
				}
				if k == midK {
					midRuns = runs
				}
			}
			if len(midRuns) > 1 {
				fmt.Fprintf(w, "\n--- pairwise vector comparisons at k = %d ---\n", midK)
				writeMatrices(w, midRuns)
			}
			fmt.Fprintf(w, "\n--- bias summary at k = %d (class-size vectors) ---\n", midK)
			fmt.Fprintf(w, "  %-20s %6s %6s %6s %6s %6s %8s\n", "algorithm", "min", "q1", "med", "q3", "max", "Gini")
			for _, ar := range midRuns {
				s := stats.Summarize(ar.classSizes)
				fmt.Fprintf(w, "  %-20s %6s %6s %6s %6s %6s %8s\n",
					ar.name, trim(s.Min), trim(s.Q1), trim(s.Median), trim(s.Q3), trim(s.Max), trim(s.Gini))
			}
			return nil
		},
	}
}

// writeMatrices renders the ▶cov / ▶spr / ▶rank / ▶hv-log matrices over the
// class-size property and ▶cov over the utility property.
func writeMatrices(w io.Writer, runs []*algRun) {
	labels := make([]string, len(runs))
	for i, r := range runs {
		labels[i] = r.name
	}
	n := len(runs[0].classSizes)
	dmax := make(core.PropertyVector, n)
	for i := range dmax {
		dmax[i] = float64(n)
	}
	comparators := []struct {
		title string
		cmp   core.Comparator
		vec   func(*algRun) core.PropertyVector
	}{
		{"coverage (privacy: class sizes) — winner named per cell", core.CovBetter(), func(r *algRun) core.PropertyVector { return r.classSizes }},
		{"spread (privacy: class sizes)", core.SprBetter(), func(r *algRun) core.PropertyVector { return r.classSizes }},
		{"rank (privacy: class sizes, D_max = all-N)", core.RankBetter{Dmax: dmax}, func(r *algRun) core.PropertyVector { return r.classSizes }},
		{"hypervolume (privacy: class sizes, log form)", core.HvLogBetter(), func(r *algRun) core.PropertyVector { return r.classSizes }},
		{"coverage (utility: retained information)", core.CovBetter(), func(r *algRun) core.PropertyVector { return r.utilVec }},
	}
	for _, c := range comparators {
		matrix(w, c.title, labels, func(i, j int) string {
			if i == j {
				return "."
			}
			out, err := c.cmp.Compare(c.vec(runs[i]), c.vec(runs[j]))
			if err != nil {
				return "err"
			}
			return outcomeGlyph(out)
		})
		fmt.Fprintln(w)
	}
}

// e15 is the GA ablation and trade-off sweep.
func e15(opts Options) Experiment {
	return Experiment{
		ID: "E15", Title: "genetic-algorithm ablation and privacy/utility trade-off", Artifact: "§6–7 extension",
		Run: func(ctx context.Context, w io.Writer) error {
			c, err := drawCensus(opts)
			if err != nil {
				return err
			}
			tab, cfg := c.tab, c.config(opts, opts.Ks[len(opts.Ks)/2])
			fmt.Fprintf(w, "census N=%d, k=%d\n", opts.CensusN, cfg.K)
			fmt.Fprintln(w, "  GA crossover ablation (cost = LM, lower is better):")
			for _, alg := range []algorithm.Algorithm{genetic.New(), genetic.NewConstrained()} {
				r, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
				if err != nil {
					return err
				}
				c, err := algorithm.ResultCost(r, tab, cfg)
				if err != nil {
					return err
				}
				writeKV(w, alg.Name(), fmt.Sprintf("node=%v LM=%s evals=%v", r.Levels, trim(c), r.Stats["fitness_evaluations"]))
			}
			opt, err := optimal.New().AnonymizeContext(ctx, tab, cfg)
			if err != nil {
				return err
			}
			oc, err := algorithm.ResultCost(opt, tab, cfg)
			if err != nil {
				return err
			}
			writeKV(w, "optimal (reference)", fmt.Sprintf("node=%v LM=%s", opt.Levels, trim(oc)))

			fmt.Fprintln(w, "  privacy/utility trade-off (optimal search per k):")
			fmt.Fprintf(w, "  %6s %8s %10s %10s\n", "k", "LM", "avg|E|", "min|E|")
			for _, k := range opts.Ks {
				cfg.K = k
				r, err := optimal.New().AnonymizeContext(ctx, tab, cfg)
				if err != nil {
					return err
				}
				lm, err := algorithm.ResultCost(r, tab, cfg)
				if err != nil {
					return err
				}
				sizes := privacy.ClassSizeVector(r.Partition)
				fmt.Fprintf(w, "  %6d %8s %10s %10s\n", k, trim(lm), trim(stats.Mean(sizes)), trim(stats.Min(sizes)))
			}
			fmt.Fprintln(w, "  Higher k forces higher loss — the §7 multi-objective tension made")
			fmt.Fprintln(w, "  visible per tuple by the property vectors.")
			return nil
		},
	}
}
