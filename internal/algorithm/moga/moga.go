// Package moga implements the paper's §7 proposed extension: treating
// privacy not as a scalar constraint but as an objective derived from the
// per-tuple property vector, and searching the generalization lattice for
// the PARETO FRONT of (privacy, utility) rather than a single
// constraint-satisfying optimum. It follows the multi-objective line of
// the authors' own prior work (Dewri et al., ICDE 2008 — reference [2]).
//
// Objectives (both minimized):
//
//   - PrivacyRank: the paper's §5.1 rank index ‖D − D_max‖ of the
//     class-size property vector, with D_max the ideal all-tuples-in-one-
//     class vector. This is the vector-aware privacy measure §7 calls for:
//     two nodes with the same minimum class size (same k) but different
//     per-tuple distributions get different objective values.
//   - Loss: Iyengar's general loss metric.
//
// Two searchers are provided: ExhaustiveFront enumerates the lattice (the
// ground truth on the full-domain search space) and NSGA2 runs an
// elitist non-dominated-sorting genetic algorithm for lattices too large
// to enumerate. E16 compares them.
//
// Both searchers evaluate nodes on the shared evaluation engine (with a
// privacy-free engine configuration: K=1, no diversity constraints, LM
// metric, zero suppression), so the partition and the loss come from
// precomputed signature fragments instead of a materialized table per
// node.
package moga

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"microdata/internal/algorithm"
	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// Objectives is one point in objective space; both components are
// minimized.
type Objectives struct {
	// PrivacyRank is ‖classSizes − D_max‖ (lower = closer to ideal
	// privacy).
	PrivacyRank float64
	// Loss is the general loss metric in [0,1] (lower = better utility).
	Loss float64
}

// Dominates reports strict Pareto dominance: no worse in both objectives
// and better in at least one.
func (a Objectives) Dominates(b Objectives) bool {
	if a.PrivacyRank > b.PrivacyRank || a.Loss > b.Loss {
		return false
	}
	return a.PrivacyRank < b.PrivacyRank || a.Loss < b.Loss
}

// Point is a lattice node with its objectives and the k it happens to
// achieve (k is emergent here, not imposed).
type Point struct {
	Node    lattice.Node
	Obj     Objectives
	KActual int
}

// Front is a set of mutually non-dominated points, sorted by rising
// PrivacyRank (and thus falling Loss).
type Front struct {
	Points      []Point
	Evaluations int
}

// newEngine builds the shared evaluation engine with moga's privacy-free
// probe configuration: K=1 and no diversity constraints (privacy is an
// objective here, not a constraint), LM metric and zero suppression, so
// every node is admissible, Evaluation.RowPartition is the plain partition
// of the generalized table, and Evaluation.Cost is exactly the general loss
// metric.
func newEngine(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*engine.Engine, error) {
	probe := cfg
	probe.K = 1
	probe.MinLDiversity, probe.MaxTCloseness, probe.MinEntropyL = 0, 0, 0
	probe.RecursiveC, probe.RecursiveL = 0, 0
	probe.Metric = algorithm.MetricLM
	probe.MaxSuppression = 0
	return engine.NewContext(ctx, t, probe)
}

// evaluate computes the objectives of one engine evaluation. P_rank needs
// the row-aligned class-size vector, so the node's rows are regrouped.
func evaluate(ev *engine.Evaluation, dmax core.PropertyVector) (Point, error) {
	p, err := ev.RowPartition()
	if err != nil {
		return Point{}, err
	}
	sizes := core.PropertyVector(p.SizeVector())
	rank := core.PRank(dmax).F(sizes)
	loss, err := ev.Cost()
	if err != nil {
		return Point{}, err
	}
	return Point{
		Node:    ev.Node.Clone(),
		Obj:     Objectives{PrivacyRank: rank, Loss: loss},
		KActual: p.MinSize(),
	}, nil
}

func idealVector(n int) core.PropertyVector {
	d := make(core.PropertyVector, n)
	for i := range d {
		d[i] = float64(n)
	}
	return d
}

// checkConfig validates the pieces moga uses (K is ignored — privacy is an
// objective here).
func checkConfig(t *dataset.Table, cfg algorithm.Config) error {
	probe := cfg
	probe.K = 1
	probe.MinLDiversity, probe.MaxTCloseness, probe.MinEntropyL = 0, 0, 0
	probe.RecursiveC, probe.RecursiveL = 0, 0
	return probe.Validate(t)
}

// extractFront returns the non-dominated subset of the points, deduplicated
// by node, sorted by PrivacyRank.
func extractFront(points []Point) []Point {
	seen := map[string]bool{}
	var uniq []Point
	for _, p := range points {
		if !seen[p.Node.Key()] {
			seen[p.Node.Key()] = true
			uniq = append(uniq, p)
		}
	}
	var front []Point
	for i, p := range uniq {
		dominated := false
		for j, q := range uniq {
			if i != j && q.Obj.Dominates(p.Obj) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(a, b int) bool {
		if front[a].Obj.PrivacyRank != front[b].Obj.PrivacyRank {
			return front[a].Obj.PrivacyRank < front[b].Obj.PrivacyRank
		}
		return front[a].Obj.Loss < front[b].Obj.Loss
	})
	return front
}

// ExhaustiveFront enumerates every lattice node and returns the exact
// Pareto front — feasible whenever the lattice is enumerable, and the
// ground truth E16 scores NSGA2 against.
func ExhaustiveFront(t *dataset.Table, cfg algorithm.Config) (*Front, error) {
	return ExhaustiveFrontContext(context.Background(), t, cfg)
}

// ExhaustiveFrontContext is ExhaustiveFront honoring a context: the lattice
// sweep runs as one parallel engine batch and aborts with the context's
// error as soon as cancellation is seen.
func ExhaustiveFrontContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*Front, error) {
	ctx, sp := telemetry.Start(ctx, "moga.exhaustive")
	defer sp.End()
	if err := checkConfig(t, cfg); err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	eng, err := newEngine(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	dmax := idealVector(t.Len())
	evs, err := eng.EvaluateAll(ctx, eng.Lattice().Nodes())
	if err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	all := make([]Point, 0, len(evs))
	for _, ev := range evs {
		pt, err := evaluate(ev, dmax)
		if err != nil {
			return nil, fmt.Errorf("moga: %w", err)
		}
		all = append(all, pt)
	}
	front := extractFront(all)
	telemetry.L().Info("moga: exhaustive front complete",
		"evaluations", len(all), "front_size", len(front))
	return &Front{Points: front, Evaluations: len(all)}, nil
}

// NSGA2 is the elitist non-dominated-sorting searcher.
type NSGA2 struct {
	// PopSize is the population size; 0 defaults to 32.
	PopSize int
	// Generations bounds the evolution; 0 defaults to 40.
	Generations int
	// MutationRate is the per-gene mutation probability; 0 defaults to 0.2.
	MutationRate float64
}

// Explore runs the search and returns the non-dominated front of every
// point ever evaluated (an archive front, deterministic for cfg.Seed).
func (g *NSGA2) Explore(t *dataset.Table, cfg algorithm.Config) (*Front, error) {
	return g.ExploreContext(context.Background(), t, cfg)
}

// ExploreContext is Explore honoring a context; the evolution aborts with
// the context's error as soon as cancellation is seen.
func (g *NSGA2) ExploreContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*Front, error) {
	ctx, sp := telemetry.Start(ctx, "moga.nsga2")
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	evalsC := reg.Counter("moga.evaluations")
	if err := checkConfig(t, cfg); err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	eng, err := newEngine(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	maxLevels := eng.Lattice().MaxLevels()
	popSize, gens, mutRate := g.PopSize, g.Generations, g.MutationRate
	if popSize <= 0 {
		popSize = 32
	}
	if gens <= 0 {
		gens = 40
	}
	if mutRate <= 0 {
		mutRate = 0.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dmax := idealVector(t.Len())

	// The local map keeps Front.Evaluations counting distinct nodes,
	// independent of the engine's own memo cache.
	cache := map[string]Point{}
	eval := func(n lattice.Node) (Point, error) {
		if pt, ok := cache[n.Key()]; ok {
			return pt, nil
		}
		evalsC.Inc()
		ev, err := eng.Evaluate(ctx, n)
		if err != nil {
			return Point{}, err
		}
		pt, err := evaluate(ev, dmax)
		if err != nil {
			return Point{}, err
		}
		cache[n.Key()] = pt
		return pt, nil
	}

	pop := make([]Point, popSize)
	for i := range pop {
		n := make(lattice.Node, len(maxLevels))
		for d, m := range maxLevels {
			n[d] = rng.Intn(m + 1)
		}
		if pop[i], err = eval(n); err != nil {
			return nil, fmt.Errorf("moga: %w", err)
		}
	}
	// Anchor both objective extremes so the front always spans the space.
	bottom := make(lattice.Node, len(maxLevels))
	top := append(lattice.Node(nil), maxLevels...)
	if pop[0], err = eval(bottom); err != nil {
		return nil, fmt.Errorf("moga: %w", err)
	}
	if popSize > 1 {
		if pop[1], err = eval(top); err != nil {
			return nil, fmt.Errorf("moga: %w", err)
		}
	}

	for gen := 0; gen < gens; gen++ {
		ranks, crowd := nondominatedSort(pop)
		better := func(i, j int) bool {
			if ranks[i] != ranks[j] {
				return ranks[i] < ranks[j]
			}
			return crowd[i] > crowd[j]
		}
		tournament := func() Point {
			i, j := rng.Intn(len(pop)), rng.Intn(len(pop))
			if better(i, j) {
				return pop[i]
			}
			return pop[j]
		}
		// Offspring: uniform crossover + ±1 mutation.
		offspring := make([]Point, 0, popSize)
		for len(offspring) < popSize {
			a, b := tournament(), tournament()
			child := make(lattice.Node, len(maxLevels))
			for d := range child {
				if rng.Intn(2) == 0 {
					child[d] = a.Node[d]
				} else {
					child[d] = b.Node[d]
				}
				if rng.Float64() < mutRate {
					if rng.Intn(2) == 0 && child[d] < maxLevels[d] {
						child[d]++
					} else if child[d] > 0 {
						child[d]--
					}
				}
			}
			pt, err := eval(child)
			if err != nil {
				return nil, fmt.Errorf("moga: %w", err)
			}
			offspring = append(offspring, pt)
		}
		// Environmental selection over parents + offspring.
		union := append(append([]Point{}, pop...), offspring...)
		pop = selectSurvivors(union, popSize)
	}

	all := make([]Point, 0, len(cache))
	for _, pt := range cache {
		all = append(all, pt)
	}
	front := extractFront(all)
	telemetry.L().Info("moga: nsga2 search complete",
		"evaluations", evalsC.Value(), "front_size", len(front))
	return &Front{Points: front, Evaluations: int(evalsC.Value())}, nil
}

// nondominatedSort returns each point's front rank (0 = non-dominated) and
// crowding distance within its rank.
func nondominatedSort(pop []Point) (ranks []int, crowd []float64) {
	n := len(pop)
	ranks = make([]int, n)
	dominatedBy := make([]int, n)
	dominatesList := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pop[i].Obj.Dominates(pop[j].Obj) {
				dominatesList[i] = append(dominatesList[i], j)
			} else if pop[j].Obj.Dominates(pop[i].Obj) {
				dominatedBy[i]++
			}
		}
	}
	var current []int
	for i := 0; i < n; i++ {
		if dominatedBy[i] == 0 {
			ranks[i] = 0
			current = append(current, i)
		}
	}
	rank := 0
	for len(current) > 0 {
		var next []int
		for _, i := range current {
			for _, j := range dominatesList[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					ranks[j] = rank + 1
					next = append(next, j)
				}
			}
		}
		rank++
		current = next
	}
	// Crowding distance per rank, per objective.
	crowd = make([]float64, n)
	byRank := map[int][]int{}
	for i, r := range ranks {
		byRank[r] = append(byRank[r], i)
	}
	for _, members := range byRank {
		for _, key := range []func(Point) float64{
			func(p Point) float64 { return p.Obj.PrivacyRank },
			func(p Point) float64 { return p.Obj.Loss },
		} {
			sort.Slice(members, func(a, b int) bool {
				return key(pop[members[a]]) < key(pop[members[b]])
			})
			lo := key(pop[members[0]])
			hi := key(pop[members[len(members)-1]])
			crowd[members[0]] = math.Inf(1)
			crowd[members[len(members)-1]] = math.Inf(1)
			if hi == lo {
				continue
			}
			for m := 1; m < len(members)-1; m++ {
				crowd[members[m]] += (key(pop[members[m+1]]) - key(pop[members[m-1]])) / (hi - lo)
			}
		}
	}
	return ranks, crowd
}

// selectSurvivors keeps the best size points by (rank, crowding).
func selectSurvivors(union []Point, size int) []Point {
	ranks, crowd := nondominatedSort(union)
	idx := make([]int, len(union))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ranks[idx[a]] != ranks[idx[b]] {
			return ranks[idx[a]] < ranks[idx[b]]
		}
		return crowd[idx[a]] > crowd[idx[b]]
	})
	out := make([]Point, size)
	for i := 0; i < size; i++ {
		out[i] = union[idx[i]]
	}
	return out
}

// Coverage reports the fraction of the reference front's points that the
// candidate front matches or dominates — the standard front-quality score
// E16 reports (1.0 means the candidate found the whole true front).
func Coverage(candidate, reference *Front) float64 {
	if len(reference.Points) == 0 {
		return math.NaN()
	}
	covered := 0
	for _, r := range reference.Points {
		for _, c := range candidate.Points {
			if c.Obj == r.Obj || c.Obj.Dominates(r.Obj) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(reference.Points))
}
