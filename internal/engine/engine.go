// Package engine is the shared lattice-node evaluation engine behind every
// global-recoding disclosure control algorithm in this reproduction
// (Datafly, Samarati, Incognito, OLA, the optimal exhaustive search, the
// genetic searchers and the §7 multi-objective explorers).
//
// A node is priced on its frequency set — its distinct generalized
// quasi-identifier tuples, its classes, each with the number of rows it
// stands for — never on the rows themselves. An Engine is a
// frequency-set store (package freqset) plus one configuration:
//
//   - The store owns everything that depends only on the table and the
//     hierarchy set: the per-level generalization maps, precomputed once
//     per store; one base frequency set per sensitive keying, built on the
//     keying's first roll-up; and a node → frequency-set cache that rolls
//     each node up once (Incognito's roll-up property, LeFevre, DeWitt &
//     Ramakrishnan 2005) from the smallest eligible set that can be its
//     source, or, when that set would be the base, from the node's hub
//     min(x, 1), itself rolled up once as an ordinary cache entry.
//     Eligible are the sets finished before the store's latest fence,
//     which the engine sets before each Evaluate and each EvaluateAll, and
//     in EvaluateAll the node's direct predecessors in the batch. When the
//     configuration constrains the sensitive attribute (ℓ-diversity,
//     t-closeness), the engine asks for the sensitive keying, whose sets
//     hold each class once with its sensitive histogram beside it.
//     engine.rows_scanned counts what the roll-ups read, each once, in the
//     evaluation that made it, a hub's included: N rows for a base, then
//     each source's size — its classes under the plain keying, its (class,
//     sensitive value) histogram entries under the sensitive one.
//   - A caller running many configurations over one table — the
//     experiment runner, once per generated table — builds one store and
//     passes it in algorithm.Config.Store to every run, so the frequency
//     sets are rolled up once for all of them. NewContext rejects a store
//     built for another table, hierarchy set or taxonomy map. Without one,
//     each engine gets a private store.
//   - The constraint verdict and the cost come from the class counts and
//     histograms: the verdict applies the configuration's
//     algorithm.ClassRule (k, the ℓ-variants and t-closeness) to each
//     class, DM is a sum of squared class sizes, LM an exact
//     count-weighted sum (utility.LossTally). None depends on class or histogram order, so a
//     node gets the same bits whichever source it was rolled up from.
//   - Each engine memoizes its verdicts and costs in a bounded LRU cache
//     keyed by lattice.Node.Key(); verdicts are never shared, since they
//     depend on the configuration.
//   - EvaluateAll evaluates a batch of nodes on a worker pool sized by
//     runtime.GOMAXPROCS, each after its direct predecessors in the batch,
//     for Incognito's per-level sweeps, OLA's binary search strata,
//     Samarati's height strata and the exhaustive sweep; every counter is
//     the same at any GOMAXPROCS.
//   - All evaluation honors a context.Context: cancelled searches abort
//     promptly with a *Canceled error wrapping context.Canceled that
//     carries the partial Stats counters.
//
// Row-level state is built only on demand: Evaluation.RowPartition regroups
// the rows of one node, and algorithm.FinishGlobal materializes the finally
// selected node. Every verdict and cost is bit-identical to the direct
// pipeline of algorithm.ApplyNode and the test reference algtest.NodeCost
// (the engine equivalence tests pin this), so switching an algorithm onto
// the engine cannot change its output.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/freqset"
	"microdata/internal/lattice"
	"microdata/internal/lru"
	"microdata/internal/privacy"
	"microdata/internal/telemetry"
	"microdata/internal/utility"
)

// Engine evaluates lattice nodes for one (table, config) pair: a
// frequency-set store plus one configuration's budget, constraints and
// metric, with its own memo of verdicts and costs. It is safe for
// concurrent use; construct one per search.
type Engine struct {
	t      *dataset.Table
	cfg    algorithm.Config
	lat    *lattice.Lattice
	budget int
	// store supplies the frequency sets; attrs are its generalization maps.
	store *freqset.Store
	attrs []freqset.Attr
	// sens describes the sensitive attribute when the configuration
	// constrains it, and selects the store's sensitive keying; nil for
	// k-only configurations.
	sens *freqset.Sensitive
	// lossErr defers a loss-precomputation failure (e.g. a Set hierarchy
	// without a taxonomy) until a cost is actually requested, matching the
	// direct pipeline where ApplyNode succeeds and only the cost fails.
	lossErr error

	cache    *lru.Cache[*Evaluation]
	counters *instruments
	// scratch pools the per-row code vectors RowPartition gathers (one
	// []uint32 per quasi-identifier, table-length).
	scratch sync.Pool
}

// New builds an engine for the table under the configuration. It uses
// cfg.Store when set — after checking it was built for this table,
// hierarchy set and taxonomy map — and a private store otherwise. The
// store's precomputation generalizes each attribute's DISTINCT ground
// values once per level — O(Σ_attr distinct×levels) hierarchy calls —
// independent of how many nodes the search will visit.
func New(t *dataset.Table, cfg algorithm.Config) (*Engine, error) {
	return NewContext(context.Background(), t, cfg)
}

// NewContext is New under a context carrying the caller's telemetry span:
// the fragment-precompute phase is traced as an "engine.precompute" child
// span, so per-phase breakdowns attribute construction cost correctly.
func NewContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*Engine, error) {
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
		t:      t,
		cfg:    cfg,
		lat:    lat,
		budget: cfg.Budget(t.Len()),
		store:  cfg.Store,
		cache:  lru.New[*Evaluation](freqset.Capacity),
	}
	if e.store == nil {
		e.store = freqset.New(t, cfg.Hierarchies, cfg.Taxonomies)
	} else if err := e.store.Check(t, cfg.Hierarchies, cfg.Taxonomies); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.counters = newInstruments(lat.Height())
	e.counters.reg.Gauge("engine.cache.size").Set(freqset.Capacity)
	_, sp := telemetry.Start(ctx, "engine.precompute",
		telemetry.Int("rows", t.Len()), telemetry.Int("qi", len(t.Schema.QuasiIdentifiers())))
	start := time.Now()
	err = e.prepare()
	e.counters.precomputeNS.Add(int64(time.Since(start)))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	telemetry.L().Debug("engine: precompute complete",
		"rows", t.Len(), "lattice_height", lat.Height(), "dur", time.Since(start))
	return e, nil
}

// prepare readies what the configuration needs of the store: the
// generalization maps and cell losses, and the sensitive attribute under
// diversity constraints. A shared store computes each once, for its first
// engine.
func (e *Engine) prepare() error {
	if err := e.store.Prepare(); err != nil {
		return err
	}
	e.attrs = e.store.Attrs()
	if err := e.store.LossErr(); err != nil && e.cfg.Metric == algorithm.MetricLM {
		e.lossErr = fmt.Errorf("engine: %w", err)
	}
	if e.cfg.HasDiversityConstraints() {
		var err error
		if e.sens, err = e.store.Sensitive(); err != nil {
			return err
		}
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

// DistinctAtLevel returns the number of distinct generalized values of
// quasi-identifier li (QI order) at the given level — the dictionary size
// of the generalized column. Datafly's most-distinct-first rule reads this
// instead of generalizing the table.
func (e *Engine) DistinctAtLevel(li, level int) (int, error) {
	if li < 0 || li >= len(e.attrs) {
		return 0, fmt.Errorf("engine: quasi-identifier index %d out of range", li)
	}
	if level < 0 || level >= len(e.attrs[li].Levels) {
		return 0, fmt.Errorf("engine: level %d out of range for quasi-identifier %d", level, li)
	}
	return e.attrs[li].Levels[level].NFrag, nil
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
	if level < 0 || level >= len(at.Levels) {
		return nil, fmt.Errorf("engine: level %d out of range for quasi-identifier %d", level, li)
	}
	frag := at.Levels[level].Frag
	out := make([]uint32, len(at.Ground))
	for i, g := range at.Ground {
		out[i] = frag[g]
	}
	return out, nil
}

// Evaluation is the memoized outcome of evaluating one lattice node. All
// exported fields are read-only shared state; do not mutate them.
type Evaluation struct {
	// Node is the evaluated node (a private clone).
	Node lattice.Node
	// BadRows counts the rows of classes violating the configured
	// constraints (undersized for k, or short of the diversity
	// requirements) — the length of algorithm.ApplyNode's third result.
	BadRows int
	// Satisfies reports BadRows <= the suppression budget: the node is
	// admissible for the search.
	Satisfies bool

	fs      *freqset.Set
	eng     *Engine
	cost    float64
	costErr error
}

// Cost returns the node's utility cost under the configured metric, lower
// is better. Nodes over the suppression budget cost +Inf. The value is
// bit-identical to the direct reference algtest.NodeCost.
func (ev *Evaluation) Cost() (float64, error) { return ev.cost, ev.costErr }

// ClassSizes returns the sizes of the node's equivalence classes before
// suppression, in no particular order.
func (ev *Evaluation) ClassSizes() []int {
	out := make([]int, len(ev.fs.Count))
	for c, n := range ev.fs.Count {
		out[c] = int(n)
	}
	return out
}

// RowPartition regroups the table's rows at the node: the equivalence
// class partition before suppression, identical to what
// algorithm.ApplyNode returns, including class order. It scans all N rows
// and is not memoized; callers that need a row-aligned view (moga's
// class-size vector) pay for it per call.
func (ev *Evaluation) RowPartition() (*eqclass.Partition, error) {
	e := ev.eng
	cs := e.getScratch()
	defer e.scratch.Put(cs)
	for li := range e.attrs {
		at := &e.attrs[li]
		lf := &at.Levels[ev.Node[li]]
		frag, dst := lf.Frag, cs.cols[li]
		for i, g := range at.Ground {
			dst[i] = frag[g]
		}
		cs.cards[li] = lf.NFrag
	}
	p, err := eqclass.FromCodes(cs.cols, cs.cards)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return p, nil
}

// evalScratch holds RowPartition's per-row code vectors and cardinalities.
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

// Evaluate returns the (possibly cached) evaluation of one node, after a
// fence: every set finished before the call may source its roll-up.
func (e *Engine) Evaluate(ctx context.Context, node lattice.Node) (*Evaluation, error) {
	e.store.Fence()
	return e.memoized(ctx, node, nil)
}

// memoized returns the node's evaluation from the memo, evaluating it on
// a miss with from as further roll-up sources (freqset.Store.Get).
func (e *Engine) memoized(ctx context.Context, node lattice.Node, from []*freqset.Set) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, &Canceled{Stats: e.Stats(), err: err}
	}
	if !e.lat.Contains(node) {
		return nil, fmt.Errorf("engine: node %v outside lattice %v", node, e.lat.MaxLevels())
	}
	key := node.Key()
	if ev, ok := e.cache.Get(key); ok {
		e.counters.cacheHits.Inc()
		return ev, nil
	}
	e.counters.cacheMisses.Inc()
	start := time.Now()
	ev, err := e.evaluate(node, from)
	elapsed := int64(time.Since(start))
	e.counters.evalTotalNS.Add(elapsed)
	e.counters.evalHist.Observe(float64(elapsed))
	if err != nil {
		return nil, err
	}
	e.cache.Put(key, ev)
	return ev, nil
}

// evaluate takes the node's frequency set from the store, then prices the
// verdict and the cost on its classes.
func (e *Engine) evaluate(node lattice.Node, from []*freqset.Set) (*Evaluation, error) {
	e.counters.nodesEvaluated.Inc()
	if h := node.Height(); h >= 0 && h < len(e.counters.visited) {
		e.counters.visited[h].Inc()
	}
	fs, w, err := e.store.Get(node, e.sens != nil, from...)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.counters.rollups.Add(int64(w.Sets))
	e.counters.rowsScanned.Add(int64(w.Read))
	ev := &Evaluation{Node: node.Clone(), fs: fs, eng: e}
	bad, badRows := e.verdict(fs)
	ev.BadRows = badRows
	ev.Satisfies = badRows <= e.budget
	if ev.Satisfies {
		ev.cost, ev.costErr = e.price(fs, ev.Node, bad, badRows)
	} else {
		ev.cost = math.Inf(1)
	}
	return ev, nil
}

// verdict marks the classes violating the configured constraints with
// the configuration's ClassRule, as algorithm.ViolatingClasses does on the
// row partition, and sums their rows.
func (e *Engine) verdict(fs *freqset.Set) (bad []bool, badRows int) {
	var sup *privacy.Support
	if e.sens != nil {
		sup = e.sens.Support
	}
	rule := e.cfg.ClassRule(sup)
	bad = make([]bool, len(fs.Count))
	for c, n := range fs.Count {
		sens, hist := fs.Class(c)
		if bad[c] = rule.Violates(int(n), sens, hist); bad[c] {
			badRows += int(n)
		}
	}
	return bad, badRows
}

// isStar reports whether class c is fully suppressed at the node.
func (e *Engine) isStar(fs *freqset.Set, c int, node lattice.Node) bool {
	for li := range e.attrs {
		star := e.attrs[li].Levels[node[li]].Star
		if star < 0 || fs.Codes[li][c] != uint32(star) {
			return false
		}
	}
	return true
}

// price computes the configured utility metric of an admissible node from
// its class counts, replicating the direct reference algtest.NodeCost: the
// violating rows are suppressed into the all-star class, then the release
// is scored.
func (e *Engine) price(fs *freqset.Set, node lattice.Node, bad []bool, badRows int) (float64, error) {
	switch e.cfg.Metric {
	case algorithm.MetricLM:
		if e.lossErr != nil {
			return 0, e.lossErr
		}
		// Suppressed rows lose 1 in every cell; a kept class loses its
		// fragments' losses once per row it holds.
		q := len(e.attrs)
		tally := utility.LossTally{}
		tally.Add(1, int64(badRows)*int64(q))
		for li := range e.attrs {
			lf := &e.attrs[li].Levels[node[li]]
			n := make([]int64, len(lf.LossVals))
			for c, code := range fs.Codes[li] {
				if !bad[c] {
					n[lf.LossIdx[code]] += int64(fs.Count[c])
				}
			}
			for k, cnt := range n {
				tally.Add(lf.LossVals[k], cnt)
			}
		}
		return tally.Sum() / (float64(q) * float64(e.t.Len())), nil
	case algorithm.MetricDM:
		// Σ|E|² over the kept classes, the natural all-star rows merging
		// with the suppressed ones into one class. Integer sums below 2^53
		// are exact in float64, so this is utility.DiscernibilityMetric's
		// value bit for bit.
		var dm int64
		starRows := int64(badRows)
		for c, n := range fs.Count {
			switch s := int64(n); {
			case bad[c]:
			case e.isStar(fs, c, node):
				starRows += s
			default:
				dm += s * s
			}
		}
		return float64(dm + starRows*starRows), nil
	case algorithm.MetricPrec:
		prec, err := utility.Precision(e.t.Schema, e.cfg.Hierarchies, node)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
		return -prec, nil
	default:
		return 0, fmt.Errorf("engine: unknown metric %v", e.cfg.Metric)
	}
}

// EvaluateAll evaluates a batch of nodes over runtime.GOMAXPROCS(0) worker
// goroutines — the one level of parallelism inside a search; everything
// below a node evaluation runs on its worker — and returns the evaluations
// aligned with the input slice. It fences the store once and evaluates a
// node after its direct predecessors in the batch, offering their sets as
// roll-up sources, so the node's source is the same whichever worker gets
// it. A node listed more than once is evaluated once, at its first
// position, and every copy gets that evaluation. On error (including
// cancellation) the returned slice holds the evaluations completed so far
// and the error reports the first failure; a cancelled batch returns a
// *Canceled error wrapping the context error.
func (e *Engine) EvaluateAll(ctx context.Context, nodes []lattice.Node) ([]*Evaluation, error) {
	ctx, sp := telemetry.Start(ctx, "engine.evaluate_all", telemetry.Int("batch", len(nodes)))
	defer sp.End()
	kept, at := distinct(nodes)
	b := &batch{
		e: e, ctx: ctx, nodes: kept, out: make([]*Evaluation, len(kept)),
		height: make([]int, len(kept)), byHeight: make([]int, len(kept)),
		waits: make([]atomic.Int32, len(kept)), ready: make(chan int, len(kept)),
	}
	for i, x := range kept {
		b.height[i], b.byHeight[i] = x.Height(), i
	}
	slices.SortStableFunc(b.byHeight, func(i, j int) int { return b.height[i] - b.height[j] })
	b.left.Store(int64(len(kept)))
	for i := range kept {
		b.neighbours(i, -1, func(int) { b.waits[i].Add(1) })
		if b.waits[i].Load() == 0 {
			b.ready <- i
		}
	}
	if len(kept) == 0 {
		close(b.ready)
	}
	e.store.Fence()
	// The caller is one of the workers.
	for w := min(runtime.GOMAXPROCS(0), len(kept)); w > 1; w-- {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.work()
		}()
	}
	b.work()
	b.wg.Wait()
	if err := ctx.Err(); err != nil && !isCanceled(b.err) {
		b.err = &Canceled{Stats: e.Stats(), err: err}
	}
	if at == nil {
		return b.out, b.err
	}
	out := make([]*Evaluation, len(nodes))
	for i, j := range at {
		out[i] = b.out[j]
	}
	return out, b.err
}

// distinct returns nodes without their repeats, each node at its first
// position, and at, where at[i] is the position of nodes[i] among them;
// at is nil, and nodes returned as they are, when nothing repeats.
func distinct(nodes []lattice.Node) (kept []lattice.Node, at []int) {
	if len(nodes) < 2 {
		return nodes, nil
	}
	// Sorted by level vector, then position, a node's copies are adjacent
	// and its first copy leads. at[i] holds the position of nodes[i]'s
	// first copy, then its position in kept.
	buf := make([]int, 2*len(nodes))
	order, at := buf[:len(nodes)], buf[len(nodes):]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		if c := slices.Compare(nodes[i], nodes[j]); c != 0 {
			return c
		}
		return i - j
	})
	repeats := false
	for k, i := range order {
		at[i] = i
		if k > 0 && slices.Equal(nodes[i], nodes[order[k-1]]) {
			at[i], repeats = at[order[k-1]], true
		}
	}
	if !repeats {
		return nodes, nil
	}
	for i, x := range nodes {
		if at[i] == i {
			at[i] = len(kept)
			kept = append(kept, x)
		} else {
			at[i] = at[at[i]]
		}
	}
	return kept, at
}

// batch is one EvaluateAll call. byHeight lists the positions by node
// height, waits counts each position's unevaluated direct predecessors
// (a node is ready at zero), left the unevaluated positions; mu guards
// err, the first failure, and stop skips the rest of the batch.
type batch struct {
	e        *Engine
	ctx      context.Context
	nodes    []lattice.Node
	out      []*Evaluation
	height   []int
	byHeight []int
	waits    []atomic.Int32
	ready    chan int
	left     atomic.Int64
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error
	stop     atomic.Bool
}

// neighbours calls fn with the positions of node i's direct predecessors
// (step -1) or successors (1) in the batch.
func (b *batch) neighbours(i, step int, fn func(j int)) {
	x, h := b.nodes[i], b.height[i]+step
	lo, _ := slices.BinarySearchFunc(b.byHeight, h, func(j, h int) int { return b.height[j] - h })
	for _, j := range b.byHeight[lo:] {
		if b.height[j] != h {
			return
		}
		if y := b.nodes[j]; step < 0 && y.AtMost(x) || step > 0 && x.AtMost(y) {
			fn(j)
		}
	}
}

// work evaluates ready nodes, offering each its predecessors' sets, and
// releases their successors until the batch is done; after a failure it
// only releases them.
func (b *batch) work() {
	for i := range b.ready {
		if !b.stop.Load() {
			var buf [8]*freqset.Set
			from := buf[:0]
			b.neighbours(i, -1, func(j int) {
				if b.out[j] != nil {
					from = append(from, b.out[j].fs)
				}
			})
			ev, err := b.e.memoized(b.ctx, b.nodes[i], from)
			if err != nil {
				b.mu.Lock()
				// Prefer the context's own cancellation over another
				// worker's failure.
				if b.err == nil || (b.ctx.Err() != nil && !isCanceled(b.err)) {
					b.err = err
				}
				b.mu.Unlock()
				b.stop.Store(true)
			}
			b.out[i] = ev
		}
		b.neighbours(i, 1, func(k int) {
			if b.waits[k].Add(-1) == 0 {
				b.ready <- k
			}
		})
		if b.left.Add(-1) == 0 {
			close(b.ready)
		}
	}
}

func isCanceled(err error) bool {
	_, ok := err.(*Canceled)
	return ok
}
