package experiment

import (
	"context"
	"fmt"
	"io"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/moga"
	"microdata/internal/freqset"
	"microdata/internal/paperdata"
)

// e16 is the §7 future-work experiment: privacy as a vector-derived
// objective, explored as a Pareto front instead of a constrained optimum.
func e16(opts Options) Experiment {
	return Experiment{
		ID: "E16", Title: "multi-objective privacy/utility Pareto front", Artifact: "§7 proposed extension",
		Run: func(ctx context.Context, w io.Writer) error {
			// Ground truth on the paper's own lattice.
			t1, hs := paperdata.T1(), paperdata.Hierarchies()
			cfg := algorithm.Config{
				K:           1,
				Hierarchies: hs,
				Metric:      algorithm.MetricLM,
				Store:       freqset.New(t1, hs, nil, 0),
			}
			truth, err := moga.ExhaustiveFrontContext(ctx, t1, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "paper lattice (30 nodes): exact Pareto front has %d points\n", len(truth.Points))
			fmt.Fprintf(w, "  %-10s %12s %8s %8s\n", "node", "privacyRank", "LM", "k_act")
			for _, p := range truth.Points {
				fmt.Fprintf(w, "  %-10s %12s %8s %8d\n", p.Node, trim(p.Obj.PrivacyRank), trim(p.Obj.Loss), p.KActual)
			}
			nsga, err := (&moga.NSGA2{}).ExploreContext(ctx, t1, cfg)
			if err != nil {
				return err
			}
			writeKV(w, "NSGA-II coverage of the exact front", trim(moga.Coverage(nsga, truth)))
			writeKV(w, "NSGA-II evaluations (of 30 nodes)", nsga.Evaluations)

			// Census scale: NSGA-II vs exhaustive on the nested ladders.
			c, err := drawCensus(opts)
			if err != nil {
				return err
			}
			tab := c.tab
			ccfg := algorithm.Config{
				K:           1,
				Hierarchies: c.hs,
				Metric:      algorithm.MetricLM,
				Taxonomies:  c.tax,
				Seed:        opts.Seed,
				Store:       c.store,
			}
			ctruth, err := moga.ExhaustiveFrontContext(ctx, tab, ccfg)
			if err != nil {
				return err
			}
			cnsga, err := (&moga.NSGA2{}).ExploreContext(ctx, tab, ccfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "census N=%d: exact front %d points (%d nodes), NSGA-II front %d points (%d evaluations), coverage %s\n",
				opts.CensusN, len(ctruth.Points), ctruth.Evaluations,
				len(cnsga.Points), cnsga.Evaluations, trim(moga.Coverage(cnsga, ctruth)))
			fmt.Fprintf(w, "  census front (exact): k_act ranges along the trade-off:\n")
			for _, p := range ctruth.Points {
				fmt.Fprintf(w, "  %-14s rank=%-10s LM=%-8s k_act=%d\n", p.Node, trim(p.Obj.PrivacyRank), trim(p.Obj.Loss), p.KActual)
			}
			fmt.Fprintln(w, "  Privacy handled as an objective (paper §7): the front exposes every")
			fmt.Fprintln(w, "  k/utility compromise at once instead of one constrained answer.")
			return nil
		},
	}
}
