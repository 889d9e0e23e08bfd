// Package incognito implements an Incognito-style full-domain search (paper
// §6, LeFevre et al.): a bottom-up breadth-first sweep of the
// generalization lattice that exploits generalization monotonicity — once a
// node satisfies k-anonymity, all of its generalizations do — to prune, and
// returns the set of MINIMAL satisfying nodes, finishing with the one the
// configured utility metric prefers.
//
// Simplification vs. the published algorithm: Incognito derives its pruning
// from subset-of-quasi-identifier iterations; this implementation prunes
// directly on the full-QI lattice, which yields the same set of minimal
// full-domain k-anonymous nodes (the published subset sweep lives in the
// tests as the reference that pins this). Note that monotonicity assumes
// nested generalization ladders; non-nested ladders (the paper's own T3b/T4
// age anchors!) may cause the sweep to label a node minimal that is not —
// the final result is still a valid k-anonymization because every returned
// node is verified directly.
//
// Each level of the breadth-first sweep batch-evaluates its non-inherited
// nodes in parallel on the shared evaluation engine. Within a stratum the
// inheritance checks consult only the previous stratum, so batching cannot
// change which nodes are evaluated.
package incognito

import (
	"context"
	"fmt"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// Incognito is the pruned full-domain lattice sweep.
type Incognito struct{}

// New returns an Incognito instance.
func New() *Incognito { return &Incognito{} }

// Name implements algorithm.Algorithm.
func (*Incognito) Name() string { return "incognito" }

// MinimalNodes sweeps the lattice bottom-up and returns every minimal node
// that satisfies k within the suppression budget, plus the number of nodes
// actually evaluated (pruned nodes are free).
func (in *Incognito) MinimalNodes(t *dataset.Table, cfg algorithm.Config) ([]lattice.Node, int, error) {
	eng, err := engine.New(t, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("incognito: %w", err)
	}
	minimal, err := in.minimalNodes(context.Background(), eng, nil)
	return minimal, int(eng.Stats().NodesEvaluated), err
}

// minimalNodes is the engine-backed sweep behind MinimalNodes. inherited, if
// non-nil, counts the nodes pruned by monotonicity (never evaluated).
func (in *Incognito) minimalNodes(ctx context.Context, eng *engine.Engine, inheritedC *telemetry.Counter) ([]lattice.Node, error) {
	lat := eng.Lattice()
	satisfying := map[string]bool{} // nodes known to satisfy
	var minimal []lattice.Node
	for h := 0; h <= lat.Height(); h++ {
		// Partition the stratum into nodes that inherit satisfaction from a
		// predecessor (free by monotonicity, never minimal) and nodes that
		// need a direct evaluation; batch the latter in parallel.
		stratum := lat.AtHeight(h)
		var fresh []lattice.Node
		for _, n := range stratum {
			inherited := false
			for _, p := range lat.Predecessors(n) {
				if satisfying[p.Key()] {
					inherited = true
					break
				}
			}
			if inherited {
				satisfying[n.Key()] = true
				if inheritedC != nil {
					inheritedC.Inc()
				}
			} else {
				fresh = append(fresh, n)
			}
		}
		evs, err := eng.EvaluateAll(ctx, fresh)
		if err != nil {
			return nil, fmt.Errorf("incognito: %w", err)
		}
		for _, ev := range evs {
			if ev.Satisfies {
				satisfying[ev.Node.Key()] = true
				minimal = append(minimal, ev.Node)
			}
		}
	}
	return minimal, nil
}

// Anonymize implements algorithm.Algorithm: among the minimal satisfying
// nodes, finish with the best one under the configured metric.
func (in *Incognito) Anonymize(t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return in.AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext implements algorithm.ContextAlgorithm; the sweep aborts
// with the context's error as soon as cancellation is seen.
func (in *Incognito) AnonymizeContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	ctx, sp := telemetry.Start(ctx, "incognito.search", telemetry.Int("k", cfg.K))
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	eng, err := engine.NewContext(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("incognito: %w", err)
	}
	minimal, err := in.minimalNodes(ctx, eng, reg.Counter("incognito.nodes_inherited"))
	if err != nil {
		return nil, err
	}
	if len(minimal) == 0 {
		return nil, fmt.Errorf("incognito: no generalization satisfies %d-anonymity within the suppression budget", cfg.K)
	}
	var best lattice.Node
	bestCost := 0.0
	for _, n := range minimal {
		ev, err := eng.Evaluate(ctx, n) // memoized from the sweep
		if err != nil {
			return nil, fmt.Errorf("incognito: %w", err)
		}
		c, err := ev.Cost()
		if err != nil {
			return nil, fmt.Errorf("incognito: %w", err)
		}
		if best == nil || c < bestCost {
			best, bestCost = n, c
		}
	}
	reg.Gauge("incognito.nodes_evaluated").Set(float64(eng.Stats().NodesEvaluated))
	reg.Gauge("incognito.minimal_nodes").Set(float64(len(minimal)))
	stats := map[string]float64{}
	reg.Snapshot().MergeInto(stats, "incognito.")
	delete(stats, "nodes_inherited") // telemetry-only; keep Result.Stats keys stable
	eng.Stats().MergeInto(stats)
	telemetry.L().Info("incognito: sweep complete",
		"minimal_nodes", len(minimal), "best_node", fmt.Sprint(best), "engine", eng.Stats().String())
	return algorithm.FinishGlobalContext(ctx, in.Name(), t, cfg, best, stats)
}
