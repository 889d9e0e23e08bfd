// Package engine is the shared lattice-node evaluation engine behind every
// global-recoding disclosure control algorithm in this reproduction
// (Datafly, Samarati, Incognito, OLA, the optimal exhaustive search, the
// genetic searchers and the §7 multi-objective explorers).
//
// A node is priced on its frequency set — its distinct generalized
// quasi-identifier tuples, each with the number of rows it stands for —
// never on the rows themselves:
//
//   - Generalization maps are precomputed ONCE per (table, hierarchy set):
//     for each quasi-identifier and each level, the distinct ground values
//     are mapped to compact fragment ids such that two rows share a
//     fragment id exactly when their generalized values coincide. Alongside
//     come each level's distinct Iyengar cell losses and a nesting table
//     recording which finer level's fragments map into a coarser level's.
//   - The base frequency set is built once, with the precompute, by one
//     group-by over the rows' ground dictionary codes. When the
//     configuration constrains the sensitive attribute (ℓ-diversity,
//     t-closeness), the sensitive code joins the grouping key, so a tuple
//     is a (quasi-identifier tuple, sensitive value) pair.
//   - Every node is evaluated by rolling up (Incognito's roll-up property,
//     LeFevre, DeWitt & Ramakrishnan 2005) the smallest cached frequency
//     set that can be its source: a node P at or below the evaluated node
//     X in every attribute whose fragments at P's levels nest inside X's.
//     The base always qualifies. The source's tuples are mapped to X's
//     fragments and regrouped with summed counts.
//   - The constraint verdict and the cost come from the tuple counts: k,
//     the ℓ-variants and t-closeness per class, DM as a sum of squared
//     class sizes, LM as an exact count-weighted sum (utility.LossTally).
//     None depends on tuple order, so a node gets the same bits whichever
//     source it was rolled up from.
//   - Evaluations are memoized in a bounded LRU cache keyed by
//     lattice.Node.Key(); the cached frequency sets are the roll-up sources.
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
	"microdata/internal/lattice"
	"microdata/internal/privacy"
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

// groundLevel marks a frequency set whose codes are an attribute's ground
// dictionary codes — the base's — rather than fragment ids of a level.
const groundLevel = -1

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
	// up[lx] maps this level's fragment ids to level lx's when every
	// fragment here lies inside one fragment at lx (lx >= this level);
	// nil when the two levels do not nest.
	up [][]uint32
	// lossIdx maps a fragment id to its Iyengar cell loss in lossVals, the
	// level's distinct losses; nil when the engine skipped losses.
	lossIdx  []uint32
	lossVals []float64
}

// attrFrags is the full generalization map of one quasi-identifier.
type attrFrags struct {
	ground []uint32 // row index -> distinct-ground-value id
	levels []levelFrags
}

// toLevel returns the map from codes at level from (groundLevel for the
// base) to fragment ids at level to, or nil when from's codes do not
// determine to's fragments.
func (at *attrFrags) toLevel(from, to int) []uint32 {
	if from == groundLevel {
		return at.levels[to].frag
	}
	if from > to {
		return nil
	}
	return at.levels[from].up[to]
}

// Engine evaluates lattice nodes for one (table, config) pair. It is safe
// for concurrent use; construct one per search.
type Engine struct {
	t      *dataset.Table
	cfg    algorithm.Config
	lat    *lattice.Lattice
	budget int
	attrs  []attrFrags
	// base is the frequency set of the ground codes, the source every
	// node can roll up from.
	base *freqSet
	// sens describes the sensitive attribute when the configuration
	// constrains it; nil for k-only configurations.
	sens *sensInfo
	// lossErr defers a loss-precomputation failure (e.g. a Set hierarchy
	// without a taxonomy) until a cost is actually requested, matching the
	// direct pipeline where ApplyNode succeeds and only NodeCost fails.
	lossErr error

	cacheSize int
	cache     *lruCache
	counters  *instruments
	// scratch pools the per-row code vectors RowPartition gathers (one
	// []uint32 per quasi-identifier, table-length).
	scratch sync.Pool
}

// sensInfo is what the count-based diversity checks need of the sensitive
// attribute.
type sensInfo struct {
	codes []uint32 // row index -> sensitive dictionary code
	card  int
	// pos maps a sensitive code to its index in the canonical value order
	// of privacy.Support; global is the column's distribution over it.
	pos    []int
	global []float64
}

// New builds an engine for the table under the configuration. The
// precomputation pass generalizes each attribute's DISTINCT ground values
// once per level — O(Σ_attr distinct×levels) hierarchy calls — and groups
// the rows once into the base frequency set, independent of how many
// nodes the search will visit.
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
	if err == nil {
		err = e.buildBase()
	}
	e.counters.precomputeNS.Add(int64(time.Since(start)))
	sp.End()
	if err != nil {
		return nil, err
	}
	telemetry.L().Debug("engine: precompute complete",
		"rows", t.Len(), "base_tuples", e.base.len(), "lattice_height", lat.Height(), "dur", time.Since(start))
	return e, nil
}

// precompute builds the per-attribute, per-level fragment tables, their
// nesting maps and distinct losses. The distinct-ground-value pass IS the
// table's dictionary encoding: each quasi-identifier's codes and
// dictionary come straight from the table's columns.
func (e *Engine) precompute() error {
	qi := e.t.Schema.QuasiIdentifiers()
	needLoss := e.cfg.Metric == algorithm.MetricLM
	e.attrs = make([]attrFrags, len(qi))
	for li, j := range qi {
		attr := e.t.Schema.Attrs[j]
		h, ok := e.cfg.Hierarchies[attr.Name]
		if !ok {
			return fmt.Errorf("engine: no hierarchy for quasi-identifier %q", attr.Name)
		}
		// Distinct ground values in first-appearance order: the column's
		// dictionary. Codes and dictionary are shared read-only.
		col := e.t.ColumnVector(j)
		distinct := col.Dict()
		// The loss domain mirrors utility.GeneralLossMetric: numeric
		// attributes take their domain from the ORIGINAL table.
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
			var fragLoss []float64 // fragment id -> cell loss
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
					if needLoss && e.lossErr == nil {
						// A cell's loss depends on its generalized value
						// alone, so each fragment is priced once.
						loss, err := utility.CellLoss(g, attr, domLo, domHi, tax)
						if err != nil {
							// Defer: constraint checking never needs losses.
							e.lossErr = fmt.Errorf("engine: %w", err)
						}
						fragLoss = append(fragLoss, loss)
					}
				}
				lf.frag[d] = id
			}
			lf.nFrag = len(fragIndex)
			if needLoss && e.lossErr == nil {
				lf.lossIdx, lf.lossVals = distinctLosses(fragLoss)
			}
			levels[l] = lf
		}
		for l := range levels {
			levels[l].up = make([][]uint32, len(levels))
			for lx := l; lx < len(levels); lx++ {
				levels[l].up[lx] = nestMap(&levels[l], &levels[lx])
			}
		}
		e.attrs[li] = attrFrags{ground: col.Codes(), levels: levels}
	}
	if e.cfg.HasDiversityConstraints() {
		si := e.t.Schema.SensitiveIndex()
		col := e.t.ColumnVector(si)
		keys, global := privacy.Support(e.t.Column(si), false)
		at := make(map[string]int, len(keys))
		for i, k := range keys {
			at[k] = i
		}
		pos := make([]int, col.Card())
		for c, k := range col.DictKeys() {
			pos[c] = at[k]
		}
		e.sens = &sensInfo{codes: col.Codes(), card: col.Card(), pos: pos, global: global}
	}
	return nil
}

// distinctLosses indexes a level's per-fragment losses by distinct value,
// so pricing a node sums a handful of count·loss terms per attribute.
func distinctLosses(fragLoss []float64) (idx []uint32, vals []float64) {
	idx = make([]uint32, len(fragLoss))
	seen := make(map[float64]uint32)
	for f, loss := range fragLoss {
		i, ok := seen[loss]
		if !ok {
			i = uint32(len(vals))
			seen[loss] = i
			vals = append(vals, loss)
		}
		idx[f] = i
	}
	return idx, vals
}

// nestMap returns the map from fine's fragment ids to coarse's when every
// fine fragment lies inside a single coarse fragment, else nil. Interval
// ladders with non-nested widths (3 then 5) are legal hierarchies, so
// nesting is checked on the ground values, never assumed.
func nestMap(fine, coarse *levelFrags) []uint32 {
	const unset = math.MaxUint32
	m := make([]uint32, fine.nFrag)
	for i := range m {
		m[i] = unset
	}
	for d, f := range fine.frag {
		c := coarse.frag[d]
		switch m[f] {
		case unset:
			m[f] = c
		case c:
		default:
			return nil
		}
	}
	return m
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

// freqSet is a frequency set: distinct tuples of per-attribute codes, each
// with the number of rows it stands for. With a sensitive attribute in the
// key, one quasi-identifier class spans several tuples, one per sensitive
// value it holds. Tuple order is first appearance in the source and
// carries no meaning.
type freqSet struct {
	// levels[li] is the level attribute li's codes are at (groundLevel
	// for the base).
	levels []int
	// codes[li][j] is tuple j's code of attribute li.
	codes [][]uint32
	// sens[j] is tuple j's sensitive code; nil for k-only configurations.
	sens  []uint32
	count []uint32
}

func (fs *freqSet) len() int { return len(fs.count) }

// buildBase groups the rows by their ground codes (and sensitive code) —
// the only row scan of a node search.
func (e *Engine) buildBase() error {
	n := e.t.Len()
	cols := make([][]uint32, 0, len(e.attrs)+1)
	cards := make([]int, 0, len(e.attrs)+1)
	levels := make([]int, len(e.attrs))
	for li := range e.attrs {
		cols = append(cols, e.attrs[li].ground)
		cards = append(cards, len(e.attrs[li].levels[0].frag))
		// Where level 0 keeps every ground value apart (the usual exact
		// rung), the ground codes ARE the level-0 fragment ids.
		levels[li] = 0
		for d, f := range e.attrs[li].levels[0].frag {
			if f != uint32(d) {
				levels[li] = groundLevel
				break
			}
		}
	}
	if e.sens != nil {
		cols = append(cols, e.sens.codes)
		cards = append(cards, e.sens.card)
	}
	base, err := collapse(cols, cards, nil, levels)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	e.base = base
	e.counters.rowsScanned.Add(int64(n))
	return nil
}

// collapse groups items (rows, or a source's tuples) by their code columns
// into a frequency set at the given levels, summing count per group (each
// item counts 1 when count is nil). A column past the quasi-identifiers is
// the sensitive code.
func collapse(cols [][]uint32, cards []int, count []uint32, levels []int) (*freqSet, error) {
	ids, groups, err := eqclass.GroupCodes(cols, cards)
	if err != nil {
		return nil, err
	}
	q := len(levels)
	withSens := len(cols) > q
	fs := &freqSet{levels: levels, codes: make([][]uint32, q), count: make([]uint32, groups)}
	for li := range fs.codes {
		fs.codes[li] = make([]uint32, groups)
	}
	if withSens {
		fs.sens = make([]uint32, groups)
	}
	for i, g := range ids {
		if fs.count[g] == 0 {
			for li := 0; li < q; li++ {
				fs.codes[li][g] = cols[li][i]
			}
			if withSens {
				fs.sens[g] = cols[q][i]
			}
		}
		if count == nil {
			fs.count[g]++
		} else {
			fs.count[g] += count[i]
		}
	}
	return fs, nil
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

	fs      *freqSet
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
	if fs.sens == nil {
		out := make([]int, fs.len())
		for j, c := range fs.count {
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
		out[c] += int(fs.count[j])
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
		lf := &at.levels[ev.Node[li]]
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

// canSource reports whether frequency set fs determines node x's
// frequency set: in every attribute its codes map onto x's fragments.
func (e *Engine) canSource(fs *freqSet, x lattice.Node) bool {
	for li, from := range fs.levels {
		if e.attrs[li].toLevel(from, x[li]) == nil {
			return false
		}
	}
	return true
}

// source picks the smallest cached frequency set node x can roll up from;
// the base when no cached node qualifies.
func (e *Engine) source(x lattice.Node) *freqSet {
	best := e.base
	e.cache.each(func(ev *Evaluation) {
		if ev.fs.len() < best.len() && e.canSource(ev.fs, x) {
			best = ev.fs
		}
	})
	return best
}

// evaluate rolls the node's frequency set up from its source, then prices
// the verdict and the cost on the tuple counts.
func (e *Engine) evaluate(node lattice.Node) (*Evaluation, error) {
	src := e.source(node)
	d := src.len()
	e.counters.nodesEvaluated.Inc()
	e.counters.rowsScanned.Add(int64(d))
	if h := node.Height(); h >= 0 && h < len(e.counters.visited) {
		e.counters.visited[h].Inc()
	}
	fs, err := e.rollUp(src, node)
	if err != nil {
		return nil, err
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

// rollUp derives node's frequency set from src's: each tuple's codes are
// mapped to the node's fragments and equal tuples merge, summing counts.
// Attributes already at the node's level keep their codes; a source at the
// node itself (the base, for the bottom node) is the answer.
func (e *Engine) rollUp(src *freqSet, node lattice.Node) (*freqSet, error) {
	q := len(e.attrs)
	d := src.len()
	cols := make([][]uint32, q, q+1)
	cards := make([]int, q, q+1)
	moved := false
	for li := range e.attrs {
		cards[li] = e.attrs[li].levels[node[li]].nFrag
		if src.levels[li] == node[li] {
			cols[li] = src.codes[li]
			continue
		}
		moved = true
		m := e.attrs[li].toLevel(src.levels[li], node[li])
		col := make([]uint32, d)
		for j, c := range src.codes[li] {
			col[j] = m[c]
		}
		cols[li] = col
	}
	if !moved {
		return src, nil
	}
	if src.sens != nil {
		cols = append(cols, src.sens)
		cards = append(cards, e.sens.card)
	}
	fs, err := collapse(cols, cards, src.count, append([]int(nil), node...))
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return fs, nil
}

// classes groups a frequency set's tuples into the node's
// quasi-identifier classes: class[j] is tuple j's class id.
func (e *Engine) classes(fs *freqSet, node lattice.Node) (class []uint32, nClass int, err error) {
	cards := make([]int, len(e.attrs))
	for li := range e.attrs {
		cards[li] = e.attrs[li].levels[node[li]].nFrag
	}
	return eqclass.GroupCodes(fs.codes, cards)
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
func (e *Engine) verdict(fs *freqSet, node lattice.Node) (classVerdict, error) {
	v := classVerdict{star: -1}
	nClass := fs.len()
	if fs.sens != nil {
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
	for j, c := range fs.count {
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
	if fs.sens == nil {
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
func (e *Engine) diversity(fs *freqSet, v classVerdict) {
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
		local = make([]float64, len(e.sens.global))
	}
	for ci := 0; ci < nClass; ci++ {
		counts = counts[:0]
		for _, j := range order[start[ci]:start[ci+1]] {
			counts = append(counts, int(fs.count[j]))
		}
		emd := 0.0
		if local != nil {
			// The distribution over privacy.Support's key order, exactly as
			// privacy.TClosenessVector tallies it from rows.
			clear(local)
			total := float64(v.size[ci])
			for _, j := range order[start[ci]:start[ci+1]] {
				local[e.sens.pos[fs.sens[j]]] = float64(fs.count[j]) / total
			}
			emd = privacy.EMD(local, e.sens.global, false)
		}
		v.bad[ci] = e.cfg.ViolatesClass(v.size[ci], counts, emd)
	}
}

// isStar reports whether tuple j is fully suppressed at the node.
func (e *Engine) isStar(fs *freqSet, j int, node lattice.Node) bool {
	for li := range e.attrs {
		star := e.attrs[li].levels[node[li]].star
		if star < 0 || fs.codes[li][j] != uint32(star) {
			return false
		}
	}
	return true
}

// price computes the configured utility metric of an admissible node from
// its tuple counts, replicating algorithm.NodeCost: the violating rows are
// suppressed into the all-star class, then the release is scored.
func (e *Engine) price(fs *freqSet, node lattice.Node, v classVerdict) (float64, error) {
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
			lf := &e.attrs[li].levels[node[li]]
			n := make([]int64, len(lf.lossVals))
			for j, c := range fs.codes[li] {
				if kept(j) {
					n[lf.lossIdx[c]] += int64(fs.count[j])
				}
			}
			for k, cnt := range n {
				tally.Add(lf.lossVals[k], cnt)
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
