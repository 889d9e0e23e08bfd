// Package bottomup implements a bottom-up generalization anonymizer in the
// spirit of Wang, Yu & Chakraborty (paper §6): start from the raw table
// and repeatedly apply the single-attribute generalization with the best
// benefit/cost ratio — privacy gained (violating tuples rescued) per unit
// of information lost — until the privacy constraints hold within the
// suppression budget.
//
// The scoring rule is what distinguishes it from Datafly (which generalizes
// the attribute with the most distinct values regardless of cost) and from
// top-down specialization (which walks the lattice in the opposite
// direction): bottom-up climbs are guided by the marginal trade-off, so it
// often lands on cheaper nodes than Datafly at equal k.
//
// Each step's candidate climbs are batch-evaluated in parallel on the
// shared evaluation engine.
package bottomup

import (
	"context"
	"fmt"
	"math"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// BottomUp is the benefit/cost-guided climbing anonymizer.
type BottomUp struct{}

// New returns a BottomUp instance.
func New() *BottomUp { return &BottomUp{} }

// Name implements algorithm.Algorithm.
func (*BottomUp) Name() string { return "bottomup" }

// Anonymize implements algorithm.Algorithm.
func (bu *BottomUp) Anonymize(t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return bu.AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext implements algorithm.ContextAlgorithm; the climb aborts
// with the context's error as soon as cancellation is seen.
func (bu *BottomUp) AnonymizeContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	ctx, sp := telemetry.Start(ctx, "bottomup.search", telemetry.Int("k", cfg.K))
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	stepsC := reg.Counter("bottomup.generalization_steps")
	eng, err := engine.NewContext(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("bottomup: %w", err)
	}
	maxLevels := eng.Lattice().MaxLevels()
	budget := eng.Budget()
	node := make(lattice.Node, len(maxLevels))

	// probe reads a node's violating-row count and its anonymity deficit
	// (the total number of missing tuples across undersized classes — Wang
	// et al.'s "privacy gain" is the reduction of this) off an engine
	// evaluation.
	probe := func(ev *engine.Evaluation) (bad, deficit int) {
		for _, s := range ev.ClassSizes() {
			if s < cfg.K {
				deficit += cfg.K - s
			}
		}
		return ev.BadRows, deficit
	}
	// lossOf is the "information loss" side of the score: the per-level
	// loss sum of generalizing the first row's values — cheaper to compute
	// than the full metric and monotone in it for every ladder.
	lossOf := func(n lattice.Node) (float64, error) {
		qi := t.Schema.QuasiIdentifiers()
		total := 0.0
		for li, j := range qi {
			h := cfg.Hierarchies[t.Schema.Attrs[j].Name]
			l, err := h.Loss(t.At(0, j), n[li])
			if err != nil {
				return 0, err
			}
			total += l
		}
		return total, nil
	}

	ev, err := eng.Evaluate(ctx, node)
	if err != nil {
		return nil, fmt.Errorf("bottomup: %w", err)
	}
	bad, deficit := probe(ev)
	loss, err := lossOf(node)
	if err != nil {
		return nil, fmt.Errorf("bottomup: %w", err)
	}
	for bad > budget {
		// Score each one-level climb by privacy gain (deficit reduction
		// plus violating-row reduction) per unit of information lost. The
		// candidate climbs are evaluated as one parallel batch.
		var idxs []int
		var cands []lattice.Node
		for i := range node {
			if node[i] >= maxLevels[i] {
				continue
			}
			c := node.Clone()
			c[i]++
			idxs = append(idxs, i)
			cands = append(cands, c)
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("bottomup: constraints unreachable at full generalization with suppression budget %d", budget)
		}
		evs, err := eng.EvaluateAll(ctx, cands)
		if err != nil {
			return nil, fmt.Errorf("bottomup: %w", err)
		}
		bestIdx := -1
		bestScore := math.Inf(-1)
		bestBad, bestDeficit := 0, 0
		bestLoss := 0.0
		for ci, cev := range evs {
			b, d := probe(cev)
			l, err := lossOf(cands[ci])
			if err != nil {
				return nil, fmt.Errorf("bottomup: %w", err)
			}
			gain := float64(deficit-d) + float64(bad-b)
			dl := l - loss
			if dl <= 0 {
				dl = 1e-9
			}
			score := gain / dl
			if score > bestScore {
				bestIdx, bestScore = idxs[ci], score
				bestBad, bestDeficit, bestLoss = b, d, l
			}
		}
		node[bestIdx]++
		bad, deficit, loss = bestBad, bestDeficit, bestLoss
		stepsC.Inc()
	}
	stats := map[string]float64{}
	reg.Snapshot().MergeInto(stats, "bottomup.")
	eng.Stats().MergeInto(stats)
	telemetry.L().Info("bottomup: climb complete",
		"steps", stepsC.Value(), "node", fmt.Sprint(node), "engine", eng.Stats().String())
	return algorithm.FinishGlobalContext(ctx, bu.Name(), t, cfg, node, stats)
}
