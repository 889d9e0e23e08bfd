// Package engine is the shared lattice-node evaluation engine behind every
// global-recoding disclosure control algorithm in this reproduction
// (Datafly, Samarati, Incognito, OLA, the optimal exhaustive search, the
// genetic searchers and the §7 multi-objective explorers).
//
// Evaluating a lattice node used to mean generalizing the whole table and
// re-partitioning it from scratch — the hottest path in the codebase. The
// engine removes both costs:
//
//   - Generalization maps are precomputed ONCE per (table, hierarchy set):
//     for each quasi-identifier and each level, the distinct ground values
//     are mapped to compact fragment ids such that two rows share a
//     fragment id exactly when their generalized values coincide. A node
//     evaluation then assembles per-row signatures from fragments instead
//     of constructing a generalized *dataset.Table. Per-fragment Iyengar
//     cell losses are precomputed alongside, so the general loss metric
//     needs no table either.
//   - Evaluations are memoized in a bounded LRU cache keyed by
//     lattice.Node.Key(), storing the partition, the constraint verdict
//     and the (lazily computed, then cached) utility cost — genetic and
//     NSGA-II populations that revisit nodes hit the cache.
//   - EvaluateAll evaluates a batch of nodes on a worker pool sized by
//     runtime.GOMAXPROCS, for Incognito's per-level sweeps, OLA's binary
//     search strata, Samarati's height strata and the exhaustive sweep.
//   - All evaluation honors a context.Context: cancelled searches abort
//     promptly with a *Canceled error wrapping context.Canceled that
//     carries the partial Stats counters.
//
// Materialized anonymized tables are still produced — but only once, for
// the finally selected node, via algorithm.FinishGlobal. Every evaluation
// result is byte-identical to the direct algorithm.ApplyNode/NodeCost
// pipeline (the engine equivalence tests pin this), so switching an
// algorithm onto the engine cannot change its output.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
	"microdata/internal/telemetry/progress"
	"microdata/internal/utility"
)

// DefaultCacheSize bounds the memoized node cache unless WithCacheSize
// overrides it. Full-domain lattices in the experiments hold hundreds of
// nodes; evolutionary searches revisit far fewer distinct ones.
const DefaultCacheSize = 4096

// Option customizes an Engine.
type Option func(*Engine)

// WithCacheSize bounds the memoized node cache to n evaluations (n >= 1).
func WithCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.cacheSize = n
		}
	}
}

// levelFrags is one rung of one attribute's precomputed generalization map.
type levelFrags struct {
	// frag maps a distinct-ground-value id to its fragment id at this
	// level; rows share a fragment id iff their generalized values are
	// identical (by dataset.Value.Key).
	frag []uint32
	// nFrag is the number of distinct fragment ids (the distinct count of
	// the generalized column).
	nFrag int
	// star is the fragment id of the fully suppressed value, or -1 when no
	// ground value generalizes to "*" at this level.
	star int32
	// loss maps a distinct-ground-value id to its Iyengar cell loss at
	// this level; nil when the engine skipped loss precomputation.
	loss []float64
}

// attrFrags is the full generalization map of one quasi-identifier.
type attrFrags struct {
	col    int      // schema column index
	ground []uint32 // row index -> distinct-ground-value id
	levels []levelFrags
}

// Engine evaluates lattice nodes for one (table, config) pair. It is safe
// for concurrent use; construct one per search.
type Engine struct {
	t      *dataset.Table
	cfg    algorithm.Config
	lat    *lattice.Lattice
	budget int
	attrs  []attrFrags
	// lossErr defers a loss-precomputation failure (e.g. a Set hierarchy
	// without a taxonomy) until a cost is actually requested, matching the
	// direct pipeline where ApplyNode succeeds and only NodeCost fails.
	lossErr error

	cacheSize int
	cache     *lruCache
	counters  *instruments
	// scratch pools the per-evaluation code vectors (one []uint32 per
	// quasi-identifier, table-length) across concurrent evaluations.
	scratch sync.Pool
}

// New builds an engine for the table under the configuration. The
// precomputation pass generalizes each attribute's DISTINCT ground values
// once per level — O(Σ_attr distinct×levels) hierarchy calls, independent
// of how many nodes the search will visit.
func New(t *dataset.Table, cfg algorithm.Config, opts ...Option) (*Engine, error) {
	return NewContext(context.Background(), t, cfg, opts...)
}

// NewContext is New under a context carrying the caller's telemetry span:
// the fragment-precompute phase is traced as an "engine.precompute" child
// span, so per-phase breakdowns attribute construction cost correctly.
func NewContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	maxLevels, err := cfg.Hierarchies.MaxLevels(t.Schema)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	lat, err := lattice.New(maxLevels)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		t:         t,
		cfg:       cfg,
		lat:       lat,
		budget:    cfg.Budget(t.Len()),
		cacheSize: DefaultCacheSize,
	}
	for _, o := range opts {
		o(e)
	}
	e.cache = newLRUCache(e.cacheSize)
	e.counters = newInstruments(lat.Height())
	e.counters.reg.Gauge("engine.cache.size").Set(float64(e.cacheSize))
	_, sp := telemetry.Start(ctx, "engine.precompute",
		telemetry.Int("rows", t.Len()), telemetry.Int("qi", len(t.Schema.QuasiIdentifiers())))
	start := time.Now()
	err = e.precompute()
	e.counters.precomputeNS.Add(int64(time.Since(start)))
	sp.End()
	if err != nil {
		return nil, err
	}
	telemetry.L().Debug("engine: precompute complete",
		"rows", t.Len(), "lattice_height", lat.Height(), "dur", time.Since(start))
	return e, nil
}

// precompute builds the per-attribute, per-level fragment tables. The
// distinct-ground-value pass IS the table's dictionary encoding: each
// quasi-identifier's codes and dictionary come straight from the columnar
// backing (free for tables born columnar — CSV ingest, the generator —
// and built once and cached otherwise).
func (e *Engine) precompute() error {
	qi := e.t.Schema.QuasiIdentifiers()
	needLoss := e.cfg.Metric == algorithm.MetricLM
	e.attrs = make([]attrFrags, len(qi))
	columnar := e.t.Columnar()
	for li, j := range qi {
		attr := e.t.Schema.Attrs[j]
		h, ok := e.cfg.Hierarchies[attr.Name]
		if !ok {
			return fmt.Errorf("engine: no hierarchy for quasi-identifier %q", attr.Name)
		}
		// Distinct ground values in first-appearance order: the column's
		// dictionary. Codes and dictionary are shared read-only.
		col := columnar.Col(j)
		ground := col.Codes()
		distinct := col.Dict()
		// The loss domain mirrors utility.LossVector: numeric attributes
		// take their domain from the ORIGINAL table.
		var domLo, domHi float64
		if attr.Kind == dataset.Numeric {
			if lo, hi, ok := e.t.NumericRange(j); ok {
				domLo, domHi = lo, hi
			}
		}
		tax := e.cfg.Taxonomies[attr.Name]
		levels := make([]levelFrags, h.MaxLevel()+1)
		for l := range levels {
			fragIndex := make(map[string]uint32)
			lf := levelFrags{frag: make([]uint32, len(distinct)), star: -1}
			if needLoss && e.lossErr == nil {
				lf.loss = make([]float64, len(distinct))
			}
			for d, v := range distinct {
				g, err := h.Generalize(v, l)
				if err != nil {
					return fmt.Errorf("engine: attribute %q level %d: %w", attr.Name, l, err)
				}
				key := g.Key()
				id, seen := fragIndex[key]
				if !seen {
					id = uint32(len(fragIndex))
					fragIndex[key] = id
					if g.IsSuppressed() {
						lf.star = int32(id)
					}
				}
				lf.frag[d] = id
				if lf.loss != nil {
					loss, err := utility.CellLoss(g, v, attr, domLo, domHi, tax)
					if err != nil {
						// Defer: constraint checking never needs losses.
						e.lossErr = fmt.Errorf("engine: %w", err)
						lf.loss = nil
						continue
					}
					lf.loss[d] = loss
				}
			}
			lf.nFrag = len(fragIndex)
			levels[l] = lf
		}
		e.attrs[li] = attrFrags{col: j, ground: ground, levels: levels}
	}
	return nil
}

// Lattice returns the full-domain generalization lattice of the
// configuration's hierarchies over the table's quasi-identifiers.
func (e *Engine) Lattice() *lattice.Lattice { return e.lat }

// Budget returns the row-suppression budget for the table.
func (e *Engine) Budget() int { return e.budget }

// NumQI returns the number of quasi-identifiers (the lattice dimension).
func (e *Engine) NumQI() int { return len(e.attrs) }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return e.counters.snapshot() }

// CacheLen returns the number of memoized evaluations currently resident.
func (e *Engine) CacheLen() int { return e.cache.len() }

// DistinctAtLevel returns the number of distinct generalized values of
// quasi-identifier li (QI order) at the given level — what
// Table.DistinctCount would report on the generalized column. Datafly's
// most-distinct-first rule reads this instead of generalizing the table.
func (e *Engine) DistinctAtLevel(li, level int) (int, error) {
	if li < 0 || li >= len(e.attrs) {
		return 0, fmt.Errorf("engine: quasi-identifier index %d out of range", li)
	}
	if level < 0 || level >= len(e.attrs[li].levels) {
		return 0, fmt.Errorf("engine: level %d out of range for quasi-identifier %d", level, li)
	}
	return e.attrs[li].levels[level].nFrag, nil
}

// FragmentIDs returns, per row, the signature fragment id of
// quasi-identifier li (QI order) at the given level. Two rows share an id
// exactly when their generalized values at that level are identical —
// μ-Argus groups its quasi-identifier combinations on these ids instead of
// re-generalizing the table each step.
func (e *Engine) FragmentIDs(li, level int) ([]uint32, error) {
	if li < 0 || li >= len(e.attrs) {
		return nil, fmt.Errorf("engine: quasi-identifier index %d out of range", li)
	}
	at := &e.attrs[li]
	if level < 0 || level >= len(at.levels) {
		return nil, fmt.Errorf("engine: level %d out of range for quasi-identifier %d", level, li)
	}
	frag := at.levels[level].frag
	out := make([]uint32, len(at.ground))
	for i, g := range at.ground {
		out[i] = frag[g]
	}
	return out, nil
}

// Evaluation is the memoized outcome of evaluating one lattice node. All
// exported fields are read-only shared state; do not mutate them.
type Evaluation struct {
	// Node is the evaluated node (a private clone).
	Node lattice.Node
	// Partition is the equivalence-class partition of the generalized
	// table BEFORE suppression — identical to what algorithm.ApplyNode
	// returns, including class order.
	Partition *eqclass.Partition
	// Bad lists, sorted ascending, the rows of classes violating the
	// configured constraints (undersized for k, or short of the diversity
	// requirements) — algorithm.ApplyNode's third result.
	Bad []int
	// Satisfies reports len(Bad) <= the suppression budget: the node is
	// admissible for the search.
	Satisfies bool

	eng      *Engine
	costOnce sync.Once
	cost     float64
	costErr  error
}

// Cost returns the node's utility cost under the configured metric, lower
// is better, computed on first use and memoized with the evaluation. Nodes
// over the suppression budget cost +Inf. The value is byte-identical to
// algorithm.NodeCost.
func (ev *Evaluation) Cost() (float64, error) {
	ev.costOnce.Do(func() {
		start := time.Now()
		ev.cost, ev.costErr = ev.eng.cost(ev)
		ev.eng.counters.evalTotalNS.Add(int64(time.Since(start)))
	})
	return ev.cost, ev.costErr
}

// Evaluate returns the (possibly cached) evaluation of one node.
func (e *Engine) Evaluate(ctx context.Context, node lattice.Node) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Canceled{Stats: e.Stats(), err: err}
	}
	if !e.lat.Contains(node) {
		return nil, fmt.Errorf("engine: node %v outside lattice %v", node, e.lat.MaxLevels())
	}
	key := node.Key()
	if ev := e.cache.get(key); ev != nil {
		e.counters.cacheHits.Inc()
		return ev, nil
	}
	e.counters.cacheMisses.Inc()
	start := time.Now()
	ev, err := e.evaluate(node)
	elapsed := int64(time.Since(start))
	e.counters.evalTotalNS.Add(elapsed)
	e.counters.evalHist.Observe(float64(elapsed))
	if err != nil {
		return nil, err
	}
	e.cache.put(key, ev)
	return ev, nil
}

// evalScratch holds the per-evaluation code vectors and cardinalities,
// pooled across concurrent node evaluations.
type evalScratch struct {
	cols  [][]uint32
	cards []int
}

func (e *Engine) getScratch() *evalScratch {
	if cs, ok := e.scratch.Get().(*evalScratch); ok {
		return cs
	}
	cs := &evalScratch{cols: make([][]uint32, len(e.attrs)), cards: make([]int, len(e.attrs))}
	n := e.t.Len()
	for li := range cs.cols {
		cs.cols[li] = make([]uint32, n)
	}
	return cs
}

// evaluate runs the vectorized group-by pipeline for one uncached node:
// per attribute, gather the node-level fragment id of every row into a
// pooled code vector (a tight slice-indexing loop), then combine the code
// vectors with eqclass.FromCodes — no per-row signature strings.
func (e *Engine) evaluate(node lattice.Node) (*Evaluation, error) {
	n := e.t.Len()
	e.counters.nodesEvaluated.Inc()
	e.counters.rowsScanned.Add(int64(n))
	if h := node.Height(); h >= 0 && h < len(e.counters.visited) {
		e.counters.visited[h].Inc()
	}
	cs := e.getScratch()
	defer e.scratch.Put(cs)
	for li := range e.attrs {
		at := &e.attrs[li]
		lf := &at.levels[node[li]]
		frag, dst := lf.frag, cs.cols[li]
		for i, g := range at.ground {
			dst[i] = frag[g]
		}
		cs.cards[li] = lf.nFrag
	}
	p, err := eqclass.FromCodes(cs.cols, cs.cards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	bad, err := algorithm.ViolatingClasses(p, e.t, e.cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	var small []int
	for ci, rows := range p.Classes {
		if bad[ci] {
			small = append(small, rows...)
		}
	}
	sort.Ints(small)
	return &Evaluation{
		Node:      node.Clone(),
		Partition: p,
		Bad:       small,
		Satisfies: len(small) <= e.budget,
		eng:       e,
	}, nil
}

// cost computes the configured utility metric for an admissible node,
// replicating algorithm.NodeCost exactly: suppress the violating rows,
// then score.
func (e *Engine) cost(ev *Evaluation) (float64, error) {
	if !ev.Satisfies {
		return math.Inf(1), nil
	}
	switch e.cfg.Metric {
	case algorithm.MetricLM:
		if e.lossErr != nil {
			return 0, e.lossErr
		}
		return e.lossMetric(ev), nil
	case algorithm.MetricDM:
		p := ev.Partition
		if len(ev.Bad) > 0 {
			var err error
			if p, err = e.suppressedPartition(ev); err != nil {
				return 0, err
			}
		}
		return utility.DiscernibilityMetric(p), nil
	case algorithm.MetricPrec:
		prec, err := utility.Precision(e.t.Schema, e.cfg.Hierarchies, ev.Node)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
		return -prec, nil
	default:
		return 0, fmt.Errorf("engine: unknown metric %v", e.cfg.Metric)
	}
}

// lossMetric assembles Iyengar's general loss metric from the precomputed
// per-fragment cell losses, with the violating rows charged as fully
// suppressed. The summation order mirrors utility.LossVector +
// GeneralLossMetric cell for cell, so the float64 result is bit-identical
// to scoring the materialized table.
func (e *Engine) lossMetric(ev *Evaluation) float64 {
	n := e.t.Len()
	q := len(e.attrs)
	sum := 0.0
	si := 0
	for i := 0; i < n; i++ {
		rowSum := 0.0
		if si < len(ev.Bad) && ev.Bad[si] == i {
			si++
			for li := 0; li < q; li++ {
				rowSum += 1.0
			}
		} else {
			for li := range e.attrs {
				at := &e.attrs[li]
				rowSum += at.levels[ev.Node[li]].loss[at.ground[i]]
			}
		}
		sum += rowSum
	}
	return sum / (float64(q) * float64(n))
}

// suppressedPartition rebuilds the partition with the violating rows
// collapsed into the all-star signature — what eqclass.FromTable reports
// after hierarchy.SuppressRows, without touching a table. Rows whose
// values naturally generalize to "*" share the suppressed rows' fragment
// ids, so natural and forced stars merge into one class exactly as they do
// in the materialized path.
func (e *Engine) suppressedPartition(ev *Evaluation) (*eqclass.Partition, error) {
	n := e.t.Len()
	suppressed := make([]bool, n)
	for _, r := range ev.Bad {
		suppressed[r] = true
	}
	cs := e.getScratch()
	defer e.scratch.Put(cs)
	for li := range e.attrs {
		at := &e.attrs[li]
		lf := &at.levels[ev.Node[li]]
		card := lf.nFrag
		var starID uint32
		if lf.star >= 0 {
			starID = uint32(lf.star)
		} else {
			// No ground value reaches "*" at this level: a sentinel code one
			// past the real ids keeps the star class separate.
			starID = uint32(lf.nFrag)
			card++
		}
		frag, dst := lf.frag, cs.cols[li]
		for i, g := range at.ground {
			if suppressed[i] {
				dst[i] = starID
			} else {
				dst[i] = frag[g]
			}
		}
		cs.cards[li] = card
	}
	p, err := eqclass.FromCodes(cs.cols, cs.cards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return p, nil
}

// EvaluateAll evaluates a batch of nodes over runtime.GOMAXPROCS(0) worker
// goroutines — the one level of parallelism inside a search; everything
// below a node evaluation runs on its worker — and returns the evaluations
// aligned with the input slice. On error (including
// cancellation) the returned slice holds the evaluations completed so far
// and the error reports the first failure; a cancelled batch returns a
// *Canceled error wrapping the context error.
func (e *Engine) EvaluateAll(ctx context.Context, nodes []lattice.Node) ([]*Evaluation, error) {
	ctx, sp := telemetry.Start(ctx, "engine.evaluate_all", telemetry.Int("batch", len(nodes)))
	defer sp.End()
	ctx, tr := progress.Start(ctx, "engine.evaluate_all", len(nodes))
	defer tr.Finish()
	out := make([]*Evaluation, len(nodes))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers <= 1 {
		for i, n := range nodes {
			ev, err := e.Evaluate(ctx, n)
			if err != nil {
				return out, err
			}
			out[i] = ev
			tr.Add(1)
		}
		return out, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(nodes) {
					return
				}
				ev, err := e.Evaluate(cctx, nodes[i])
				if err != nil {
					mu.Lock()
					// Prefer the parent context's own cancellation over
					// the secondary errors it induces in other workers.
					if firstErr == nil || (ctx.Err() != nil && !isCanceled(firstErr)) {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				out[i] = ev
				tr.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		if ctx.Err() != nil && !isCanceled(firstErr) {
			firstErr = &Canceled{Stats: e.Stats(), err: ctx.Err()}
		}
		return out, firstErr
	}
	if err := ctx.Err(); err != nil {
		return out, &Canceled{Stats: e.Stats(), err: err}
	}
	return out, nil
}

func isCanceled(err error) bool {
	_, ok := err.(*Canceled)
	return ok
}
