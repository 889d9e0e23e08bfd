// Package genetic implements an Iyengar-style genetic k-anonymizer (paper
// §6): chromosomes are generalization-lattice nodes, fitness is the
// configured utility cost plus a penalty for tuples violating k-anonymity
// beyond the suppression budget, evolved with tournament selection,
// crossover and ±1-level mutation.
//
// Two crossover operators are provided, mirroring the Iyengar/Lunacek
// discussion the paper cites: uniform crossover (Iyengar's flexible but
// slow-converging choice) and a Lunacek-style constrained single-point
// crossover that preserves per-attribute level runs. The ablation
// experiment E15 compares them.
//
// Fitness evaluation runs on the shared evaluation engine: each distinct
// chromosome costs one signature-assembly pass, and the converged
// late-generation populations hit the engine's memo cache.
package genetic

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// Crossover selects the recombination operator. The zero value is the
// uniform crossover, which swaps each gene independently with probability ½.
type Crossover uint8

// ConstrainedCrossover is a single-point operator over the level vector,
// preserving contiguous prefixes (Lunacek et al.'s idea of respecting the
// constraint structure).
const ConstrainedCrossover Crossover = 1

// String names the operator.
func (c Crossover) String() string {
	if c == ConstrainedCrossover {
		return "constrained"
	}
	return "uniform"
}

// The evolution's settings: the population size, the number of
// generations, the per-gene mutation probability and the weight of the
// k-violation penalty.
const (
	popSize       = 40
	generations   = 60
	mutationRate  = 0.15
	penaltyWeight = 10
)

// GA is the genetic k-anonymizer.
type GA struct {
	// Crossover selects the recombination operator.
	Crossover Crossover
}

// New returns a GA with Iyengar-style uniform crossover.
func New() *GA { return &GA{} }

// NewConstrained returns a GA with the Lunacek-style constrained crossover.
func NewConstrained() *GA { return &GA{Crossover: ConstrainedCrossover} }

// Name implements algorithm.Algorithm.
func (g *GA) Name() string {
	if g.Crossover == ConstrainedCrossover {
		return "genetic-constrained"
	}
	return "genetic"
}

// Anonymize implements algorithm.Algorithm.
func (g *GA) Anonymize(t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return g.AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext implements algorithm.ContextAlgorithm; the evolution
// aborts with the context's error as soon as cancellation is seen.
func (g *GA) AnonymizeContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	ctx, sp := telemetry.Start(ctx, g.Name()+".search",
		telemetry.Int("k", cfg.K), telemetry.String("crossover", g.Crossover.String()))
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	evalsC := reg.Counter(g.Name() + ".fitness_evaluations")
	eng, err := engine.NewContext(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("genetic: %w", err)
	}
	maxLevels := eng.Lattice().MaxLevels()
	rng := rand.New(rand.NewSource(cfg.Seed))
	budget := eng.Budget()

	// fitness: utility cost + penalty for suppressions beyond budget.
	// Lower is better. Feasible nodes use their true finished cost;
	// infeasible ones are ranked above the worst feasible cost (the top
	// node's) by their violation size, so the search keeps a gradient
	// toward feasibility regardless of the metric's scale.
	topEv, err := eng.Evaluate(ctx, eng.Lattice().Top())
	if err != nil {
		return nil, fmt.Errorf("genetic: %w", err)
	}
	topCost, err := topEv.Cost()
	if err != nil {
		return nil, fmt.Errorf("genetic: %w", err)
	}
	penaltyBase := math.Abs(topCost) + 1
	// The population revisits the same lattice nodes constantly once the
	// search converges; memoizing fitness by node turns the late
	// generations nearly free without changing any outcome. The local map
	// also keeps the fitness_evaluations stat counting distinct
	// chromosomes, independent of the engine's own memo cache.
	cache := map[string]float64{}
	fitness := func(n lattice.Node) (float64, error) {
		if f, ok := cache[n.Key()]; ok {
			return f, nil
		}
		evalsC.Inc()
		ev, err := eng.Evaluate(ctx, n)
		if err != nil {
			return 0, err
		}
		over := ev.BadRows - budget
		if over > 0 {
			f := penaltyBase + penaltyWeight*float64(over)/float64(t.Len())*penaltyBase
			cache[n.Key()] = f
			return f, nil
		}
		c, err := ev.Cost()
		if err != nil {
			return 0, err
		}
		cache[n.Key()] = c
		return c, nil
	}

	randNode := func() lattice.Node {
		n := make(lattice.Node, len(maxLevels))
		for i, m := range maxLevels {
			n[i] = rng.Intn(m + 1)
		}
		return n
	}
	pop := make([]lattice.Node, popSize)
	fit := make([]float64, popSize)
	for i := range pop {
		pop[i] = randNode()
		if fit[i], err = fitness(pop[i]); err != nil {
			return nil, fmt.Errorf("genetic: %w", err)
		}
	}
	// Seed the population with the top node so a feasible individual
	// always exists (full suppression is always k-anonymous for k <= N).
	top := make(lattice.Node, len(maxLevels))
	copy(top, maxLevels)
	pop[0] = top
	if fit[0], err = fitness(top); err != nil {
		return nil, fmt.Errorf("genetic: %w", err)
	}

	tournament := func() lattice.Node {
		a, b := rng.Intn(popSize), rng.Intn(popSize)
		if fit[a] <= fit[b] {
			return pop[a]
		}
		return pop[b]
	}
	crossover := func(a, b lattice.Node) lattice.Node {
		child := make(lattice.Node, len(a))
		switch g.Crossover {
		case ConstrainedCrossover:
			cut := rng.Intn(len(a) + 1)
			copy(child, a[:cut])
			copy(child[cut:], b[cut:])
		default:
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = a[i]
				} else {
					child[i] = b[i]
				}
			}
		}
		return child
	}
	mutate := func(n lattice.Node) {
		for i := range n {
			if rng.Float64() < mutationRate {
				if rng.Intn(2) == 0 && n[i] < maxLevels[i] {
					n[i]++
				} else if n[i] > 0 {
					n[i]--
				}
			}
		}
	}

	bestIdx := argmin(fit)
	best, bestFit := pop[bestIdx].Clone(), fit[bestIdx]
	for gen := 0; gen < generations; gen++ {
		next := make([]lattice.Node, popSize)
		nextFit := make([]float64, popSize)
		// Elitism: carry the best individual.
		next[0], nextFit[0] = best.Clone(), bestFit
		for i := 1; i < popSize; i++ {
			child := crossover(tournament(), tournament())
			mutate(child)
			next[i] = child
			if nextFit[i], err = fitness(child); err != nil {
				return nil, fmt.Errorf("genetic: %w", err)
			}
		}
		pop, fit = next, nextFit
		if i := argmin(fit); fit[i] < bestFit {
			best, bestFit = pop[i].Clone(), fit[i]
		}
	}
	// The best individual must be feasible (the seeded top node is).
	bestEv, err := eng.Evaluate(ctx, best)
	if err != nil {
		return nil, fmt.Errorf("genetic: %w", err)
	}
	if !bestEv.Satisfies {
		return nil, fmt.Errorf("genetic: best individual %v infeasible (%d > budget %d)", best, bestEv.BadRows, budget)
	}
	reg.Gauge(g.Name() + ".generations").Set(generations)
	reg.Gauge(g.Name() + ".best_fitness").Set(bestFit)
	stats := map[string]float64{}
	reg.Snapshot().MergeInto(stats, g.Name()+".")
	eng.Stats().MergeInto(stats)
	telemetry.L().Info("genetic: evolution complete", "algorithm", g.Name(),
		"best_fitness", bestFit, "best_node", fmt.Sprint(best), "engine", eng.Stats().String())
	return algorithm.FinishGlobalContext(ctx, g.Name(), t, cfg, best, stats)
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] || math.IsNaN(xs[best]) {
			best = i
		}
	}
	return best
}
