package experiment

import (
	"context"
	"fmt"
	"io"
	"sync"

	"microdata/internal/algorithm"
	"microdata/internal/attack"
	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/stats"
	"microdata/internal/workload"
)

// e17 measures per-individual re-identification risk under record linkage
// — the §2 "attacks targeted towards a particular subset" scenario at
// scale, including a stigmatized-subgroup view.
func e17(opts Options) Experiment {
	return Experiment{
		ID: "E17", Title: "record-linkage attack risk per algorithm", Artifact: "§2 at scale",
		Run: func(ctx context.Context, w io.Writer) error {
			tab, err := generator.Generate(generator.Config{N: opts.CensusN, Seed: opts.Seed})
			if err != nil {
				return err
			}
			cfg := algorithm.Config{
				K:              opts.Ks[len(opts.Ks)/2],
				Hierarchies:    generator.Hierarchies(),
				MaxSuppression: 0.05,
				Metric:         algorithm.MetricLM,
				Taxonomies:     generator.Taxonomies(),
				Seed:           opts.Seed,
			}
			// Targeted subset: carriers of infectious diseases — the
			// individuals personalized privacy worries about.
			dis := generator.DiseaseTaxonomy()
			var target []int
			dj := tab.Schema.Index("Disease")
			for i := 0; i < tab.Len(); i++ {
				if dis.CoversValue("Infectious", tab.At(i, dj).Text()) {
					target = append(target, i)
				}
			}
			fmt.Fprintf(w, "census N=%d, k=%d, targeted subgroup: %d infectious-disease carriers\n",
				opts.CensusN, cfg.K, len(target))
			fmt.Fprintf(w, "  %-20s %10s %10s %10s %12s %12s\n",
				"algorithm", "marketer", "worst", "median", "target_mean", "target_worst")
			type attackRow struct {
				line string
				err  error
			}
			algs := suite()
			rows := make([]attackRow, len(algs))
			var wg sync.WaitGroup
			for i, alg := range algs {
				wg.Add(1)
				go func(i int, alg algorithm.Algorithm) {
					defer wg.Done()
					r, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
					if err != nil {
						rows[i] = attackRow{line: fmt.Sprintf("  %-20s failed: %v\n", alg.Name(), err)}
						return
					}
					adv, err := attack.NewAdversary(r.Table, generator.Taxonomies())
					if err != nil {
						rows[i] = attackRow{err: err}
						return
					}
					risk, err := attack.ProsecutorVectorContext(ctx, tab, adv)
					if err != nil {
						rows[i] = attackRow{err: err}
						return
					}
					s := stats.Summarize(risk)
					// Served from the adversary's prosecutor cache — the
					// vector above is not recomputed.
					tMean, tWorst, err := attack.TargetedRiskContext(ctx, tab, adv, target)
					if err != nil {
						rows[i] = attackRow{err: err}
						return
					}
					rows[i] = attackRow{line: fmt.Sprintf("  %-20s %10s %10s %10s %12s %12s\n",
						alg.Name(), trim(s.Mean), trim(s.Max), trim(s.Median), trim(tMean), trim(tWorst))}
				}(i, alg)
			}
			wg.Wait()
			for _, row := range rows {
				if row.err != nil {
					return row.err
				}
				fmt.Fprint(w, row.line)
			}
			fmt.Fprintln(w, "  Every algorithm bounds the worst risk by 1/k, but the DISTRIBUTION")
			fmt.Fprintln(w, "  differs (the anonymization bias): identical guarantees, different")
			fmt.Fprintln(w, "  protection for the targeted subgroup.")
			return nil
		},
	}
}

// e18 measures aggregate-query accuracy — the LeFevre utility view the
// paper's §6 quotes for multidimensional recoding.
func e18(opts Options) Experiment {
	return Experiment{
		ID: "E18", Title: "range-count query accuracy per algorithm", Artifact: "§6 (LeFevre motivation)",
		Run: func(ctx context.Context, w io.Writer) error {
			tab, err := generator.Generate(generator.Config{N: opts.CensusN, Seed: opts.Seed})
			if err != nil {
				return err
			}
			cfg := algorithm.Config{
				K:              opts.Ks[len(opts.Ks)/2],
				Hierarchies:    generator.Hierarchies(),
				MaxSuppression: 0.05,
				Metric:         algorithm.MetricLM,
				Taxonomies:     generator.Taxonomies(),
				Seed:           opts.Seed,
			}
			// Anonymize once; reuse the releases across the workloads.
			algs := suite()
			type release struct {
				table *dataset.Table
				fail  error
			}
			releases := make([]release, len(algs))
			var wg sync.WaitGroup
			for i, alg := range algs {
				wg.Add(1)
				go func(i int, alg algorithm.Algorithm) {
					defer wg.Done()
					r, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
					if err != nil {
						releases[i] = release{fail: err}
						return
					}
					releases[i] = release{table: r.Table}
				}(i, alg)
			}
			wg.Wait()
			for _, npred := range []int{1, 2, 3} {
				queries, err := workload.Generate(tab, workload.Config{
					Queries: 150, Predicates: npred, Seed: opts.Seed,
				})
				if err != nil {
					return err
				}
				// The estimator and true answers are shared read-only by
				// every release's goroutine.
				prepared, err := workload.Prepare(tab, queries, generator.Taxonomies())
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "  workload: 150 COUNT queries, %d predicate(s), k=%d\n", npred, cfg.K)
				fmt.Fprintf(w, "  %-20s %12s %12s %12s\n", "algorithm", "meanAbsErr", "medAbsErr", "meanRelErr")
				lines := make([]string, len(algs))
				errs := make([]error, len(algs))
				var qwg sync.WaitGroup
				for i := range algs {
					qwg.Add(1)
					go func(i int) {
						defer qwg.Done()
						if releases[i].fail != nil {
							lines[i] = fmt.Sprintf("  %-20s failed: %v\n", algs[i].Name(), releases[i].fail)
							return
						}
						rep, err := prepared.Evaluate(releases[i].table)
						if err != nil {
							errs[i] = err
							return
						}
						lines[i] = fmt.Sprintf("  %-20s %12s %12s %12s\n",
							algs[i].Name(), trim(rep.MeanAbsError), trim(rep.MedianAbsError), trim(rep.MeanRelError))
					}(i)
				}
				qwg.Wait()
				for i := range lines {
					if errs[i] != nil {
						return errs[i]
					}
					fmt.Fprint(w, lines[i])
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w, "  Multidimensional recoding (mondrian) answers multi-predicate range")
			fmt.Fprintln(w, "  counts most accurately — the LeFevre claim the paper's §6 quotes.")
			return nil
		},
	}
}
