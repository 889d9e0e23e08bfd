// Package engine is the shared lattice-node evaluation engine behind every
// global-recoding disclosure control algorithm in this reproduction
// (Datafly, Samarati, Incognito, OLA, the optimal exhaustive search, the
// genetic searchers and the §7 multi-objective explorers).
//
// A node is priced on its frequency set — its distinct generalized
// quasi-identifier tuples, each with the number of rows it stands for —
// never on the rows themselves. An Engine is a frequency-set store
// (package freqset) plus one configuration:
//
//   - The store owns everything that depends only on the table and the
//     hierarchy set: the per-level generalization maps, precomputed once
//     per store; one base frequency set per sensitive keying, built on the
//     keying's first roll-up; and a node → frequency-set cache that rolls
//     each node up once (Incognito's roll-up property, LeFevre, DeWitt &
//     Ramakrishnan 2005) from the smallest cached set that can be its
//     source. When the configuration constrains the sensitive attribute
//     (ℓ-diversity, t-closeness), the engine asks for the keying whose
//     tuples are (quasi-identifier tuple, sensitive value) pairs.
//   - A caller running many configurations over one table — the
//     experiment runner, once per generated table — builds one store and
//     passes it in algorithm.Config.Store to every run, so the frequency
//     sets are rolled up once for all of them. NewContext rejects a store
//     built for another table, hierarchy set or taxonomy map. Without one,
//     each engine gets a private store.
//   - The constraint verdict and the cost come from the tuple counts: k,
//     the ℓ-variants and t-closeness per class, DM as a sum of squared
//     class sizes, LM as an exact count-weighted sum (utility.LossTally).
//     None depends on tuple order, so a node gets the same bits whichever
//     source it was rolled up from.
//   - Each engine memoizes its verdicts and costs in a bounded LRU cache
//     keyed by lattice.Node.Key(); verdicts are never shared, since they
//     depend on the configuration.
//   - EvaluateAll evaluates a batch of nodes on a worker pool sized by
//     runtime.GOMAXPROCS, in ascending height, for Incognito's per-level
//     sweeps, OLA's binary search strata, Samarati's height strata and the
//     exhaustive sweep.
//   - All evaluation honors a context.Context: cancelled searches abort
//     promptly with a *Canceled error wrapping context.Canceled that
//     carries the partial Stats counters.
//
// Row-level state is built only on demand: Evaluation.RowPartition regroups
// the rows of one node, and algorithm.FinishGlobal materializes the finally
// selected node. Every verdict and cost is bit-identical to the direct
// algorithm.ApplyNode/NodeCost pipeline (the engine equivalence tests pin
// this), so switching an algorithm onto the engine cannot change its
// output.
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
	"microdata/internal/freqset"
	"microdata/internal/lattice"
	"microdata/internal/lru"
	"microdata/internal/privacy"
	"microdata/internal/telemetry"
	"microdata/internal/telemetry/progress"
	"microdata/internal/utility"
)

// DefaultCacheSize bounds the memoized node cache, and a private store's
// frequency sets, unless WithCacheSize overrides it. Full-domain lattices
// in the experiments hold hundreds of nodes; evolutionary searches revisit
// far fewer distinct ones.
const DefaultCacheSize = freqset.DefaultCapacity

// Option customizes an Engine.
type Option func(*Engine)

// WithCacheSize bounds the memoized node cache to n evaluations (n >= 1),
// and a private store to n frequency sets per keying.
func WithCacheSize(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.cacheSize = n
		}
	}
}

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
	// direct pipeline where ApplyNode succeeds and only NodeCost fails.
	lossErr error

	cacheSize int
	cache     *lru.Cache[*Evaluation]
	counters  *instruments
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
		store:     cfg.Store,
		cacheSize: DefaultCacheSize,
	}
	for _, o := range opts {
		o(e)
	}
	if e.store == nil {
		e.store = freqset.New(t, cfg.Hierarchies, cfg.Taxonomies, e.cacheSize)
	} else if err := e.store.Check(t, cfg.Hierarchies, cfg.Taxonomies); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.cache = lru.New[*Evaluation](e.cacheSize)
	e.counters = newInstruments(lat.Height())
	e.counters.reg.Gauge("engine.cache.size").Set(float64(e.cacheSize))
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

// CacheLen returns the number of memoized evaluations currently resident.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// DistinctAtLevel returns the number of distinct generalized values of
// quasi-identifier li (QI order) at the given level — what
// Table.DistinctCount would report on the generalized column. Datafly's
// most-distinct-first rule reads this instead of generalizing the table.
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
// bit-identical to algorithm.NodeCost.
func (ev *Evaluation) Cost() (float64, error) { return ev.cost, ev.costErr }

// ClassSizes returns the sizes of the node's equivalence classes before
// suppression, in no particular order.
func (ev *Evaluation) ClassSizes() ([]int, error) {
	fs := ev.fs
	if fs.Sens == nil {
		out := make([]int, fs.Len())
		for j, c := range fs.Count {
			out[j] = int(c)
		}
		return out, nil
	}
	class, nClass, err := ev.eng.classes(fs, ev.Node)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	out := make([]int, nClass)
	for j, c := range class {
		out[c] += int(fs.Count[j])
	}
	return out, nil
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

// Evaluate returns the (possibly cached) evaluation of one node.
func (e *Engine) Evaluate(ctx context.Context, node lattice.Node) (*Evaluation, error) {
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
	ev, err := e.evaluate(node)
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
// verdict and the cost on the tuple counts.
func (e *Engine) evaluate(node lattice.Node) (*Evaluation, error) {
	e.counters.nodesEvaluated.Inc()
	if h := node.Height(); h >= 0 && h < len(e.counters.visited) {
		e.counters.visited[h].Inc()
	}
	fs, scanned, err := e.store.Get(node, e.sens != nil)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if scanned > 0 {
		e.counters.rollups.Inc()
		e.counters.rowsScanned.Add(int64(scanned))
	}
	ev := &Evaluation{Node: node.Clone(), fs: fs, eng: e}
	v, err := e.verdict(fs, ev.Node)
	if err != nil {
		return nil, err
	}
	ev.BadRows = v.badRows
	ev.Satisfies = v.badRows <= e.budget
	if ev.Satisfies {
		ev.cost, ev.costErr = e.price(fs, ev.Node, v)
	} else {
		ev.cost = math.Inf(1)
	}
	return ev, nil
}

// classes groups a frequency set's tuples into the node's
// quasi-identifier classes: class[j] is tuple j's class id.
func (e *Engine) classes(fs *freqset.Set, node lattice.Node) (class []uint32, nClass int, err error) {
	cards := make([]int, len(e.attrs))
	for li := range e.attrs {
		cards[li] = e.attrs[li].Levels[node[li]].NFrag
	}
	return eqclass.GroupCodes(fs.Codes, cards)
}

// classVerdict is a node's constraint verdict over its frequency set.
type classVerdict struct {
	// class[j] is tuple j's class; nil when tuples are classes (k-only).
	class []uint32
	// bad and size are per class.
	bad     []bool
	size    []int
	badRows int
	// star is the class whose every attribute is "*", or -1.
	star int
}

// verdict marks the classes violating the configured constraints, exactly
// as algorithm.ViolatingClasses does on the row partition.
func (e *Engine) verdict(fs *freqset.Set, node lattice.Node) (classVerdict, error) {
	v := classVerdict{star: -1}
	nClass := fs.Len()
	if fs.Sens != nil {
		var err error
		if v.class, nClass, err = e.classes(fs, node); err != nil {
			return v, fmt.Errorf("engine: %w", err)
		}
	}
	classOf := func(j int) int {
		if v.class == nil {
			return j
		}
		return int(v.class[j])
	}
	v.size = make([]int, nClass)
	seen := make([]bool, nClass)
	for j, c := range fs.Count {
		ci := classOf(j)
		v.size[ci] += int(c)
		if !seen[ci] {
			seen[ci] = true
			if e.isStar(fs, j, node) {
				v.star = ci
			}
		}
	}
	v.bad = make([]bool, nClass)
	if fs.Sens == nil {
		for ci, s := range v.size {
			v.bad[ci] = s < e.cfg.K
		}
	} else {
		e.diversity(fs, v)
	}
	for ci, b := range v.bad {
		if b {
			v.badRows += v.size[ci]
		}
	}
	return v, nil
}

// diversity fills v.bad from each class's sensitive value counts: the
// tuples of a class are (class, sensitive value) pairs, so a class's
// histogram is the counts of its tuples.
func (e *Engine) diversity(fs *freqset.Set, v classVerdict) {
	nClass := len(v.size)
	// Bucket the tuples by class (a counting sort).
	start := make([]int, nClass+1)
	for _, c := range v.class {
		start[c+1]++
	}
	for ci := 0; ci < nClass; ci++ {
		start[ci+1] += start[ci]
	}
	order := make([]int, len(v.class))
	next := append([]int(nil), start[:nClass]...)
	for j, c := range v.class {
		order[next[c]] = j
		next[c]++
	}
	var counts []int
	var local []float64
	if e.cfg.MaxTCloseness > 0 {
		local = make([]float64, len(e.sens.Global))
	}
	for ci := 0; ci < nClass; ci++ {
		counts = counts[:0]
		for _, j := range order[start[ci]:start[ci+1]] {
			counts = append(counts, int(fs.Count[j]))
		}
		emd := 0.0
		if local != nil {
			// The distribution over privacy.Support's key order, exactly as
			// privacy.TClosenessVector tallies it from rows.
			clear(local)
			total := float64(v.size[ci])
			for _, j := range order[start[ci]:start[ci+1]] {
				local[e.sens.Pos[fs.Sens[j]]] = float64(fs.Count[j]) / total
			}
			emd = privacy.EMD(local, e.sens.Global, false)
		}
		v.bad[ci] = e.cfg.ViolatesClass(v.size[ci], counts, emd)
	}
}

// isStar reports whether tuple j is fully suppressed at the node.
func (e *Engine) isStar(fs *freqset.Set, j int, node lattice.Node) bool {
	for li := range e.attrs {
		star := e.attrs[li].Levels[node[li]].Star
		if star < 0 || fs.Codes[li][j] != uint32(star) {
			return false
		}
	}
	return true
}

// price computes the configured utility metric of an admissible node from
// its tuple counts, replicating algorithm.NodeCost: the violating rows are
// suppressed into the all-star class, then the release is scored.
func (e *Engine) price(fs *freqset.Set, node lattice.Node, v classVerdict) (float64, error) {
	kept := func(j int) bool {
		if v.class == nil {
			return !v.bad[j]
		}
		return !v.bad[v.class[j]]
	}
	switch e.cfg.Metric {
	case algorithm.MetricLM:
		if e.lossErr != nil {
			return 0, e.lossErr
		}
		// Suppressed rows lose 1 in every cell; a kept tuple loses its
		// fragments' losses once per row it stands for.
		q := len(e.attrs)
		tally := utility.LossTally{}
		tally.Add(1, int64(v.badRows)*int64(q))
		for li := range e.attrs {
			lf := &e.attrs[li].Levels[node[li]]
			n := make([]int64, len(lf.LossVals))
			for j, c := range fs.Codes[li] {
				if kept(j) {
					n[lf.LossIdx[c]] += int64(fs.Count[j])
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
		starRows := int64(v.badRows)
		for ci, s := range v.size {
			switch {
			case v.bad[ci]:
			case ci == v.star:
				starRows += int64(s)
			default:
				dm += int64(s) * int64(s)
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
// aligned with the input slice. Nodes are claimed in ascending height, so
// finer nodes tend to be cached as roll-up sources before coarser ones are
// evaluated. On error (including cancellation) the returned slice holds
// the evaluations completed so far and the error reports the first
// failure; a cancelled batch returns a *Canceled error wrapping the
// context error.
func (e *Engine) EvaluateAll(ctx context.Context, nodes []lattice.Node) ([]*Evaluation, error) {
	ctx, sp := telemetry.Start(ctx, "engine.evaluate_all", telemetry.Int("batch", len(nodes)))
	defer sp.End()
	ctx, tr := progress.Start(ctx, "engine.evaluate_all", len(nodes))
	defer tr.Finish()
	out := make([]*Evaluation, len(nodes))
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return nodes[order[a]].Height() < nodes[order[b]].Height() })
	workers := runtime.GOMAXPROCS(0)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers <= 1 {
		for _, i := range order {
			ev, err := e.Evaluate(ctx, nodes[i])
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
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
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
