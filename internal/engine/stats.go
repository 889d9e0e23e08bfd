package engine

import (
	"fmt"
	"time"

	"microdata/internal/telemetry"
)

// Metric names the engine registers. The engine's counters live in a
// per-engine telemetry registry; when a telemetry.Collector is active the
// registry is parented to the process-wide one, so the same increments
// feed both the per-run Stats snapshot and the global -metrics export.
const (
	MetricNodesEvaluated = "engine.nodes.evaluated"
	MetricCacheHit       = "engine.cache.hit"
	MetricCacheMiss      = "engine.cache.miss"
	MetricRowsScanned    = "engine.rows.scanned"
	MetricPrecomputeNS   = "engine.precompute.ns"
	MetricEvalTotalNS    = "engine.eval.total_ns"
	// MetricRollups counts the frequency sets the engine rolled up itself:
	// store misses. Engines sharing a store split the roll-ups between
	// them, so unlike the counters above it is not part of Stats.
	MetricRollups = "engine.rollups"
	// MetricEvalHistogram is the per-evaluation latency histogram (ns).
	MetricEvalHistogram = "engine.eval.ns"
	// MetricVisitedPrefix prefixes the per-lattice-level visit counters:
	// "lattice.nodes.visited.l<height>".
	MetricVisitedPrefix = "lattice.nodes.visited.l"
)

// evalBuckets are the fixed upper bounds (ns) of the evaluation-latency
// histogram: 1µs .. 1s, decade steps.
var evalBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// Stats is a snapshot of the engine's counters — a thin view over the
// engine's telemetry registry. The phase timings are cumulative wall time
// spent inside the phase; under parallel batch evaluation the evaluation
// timing sums across workers and can exceed elapsed wall time.
type Stats struct {
	// NodesEvaluated counts full node evaluations: memo misses, each
	// priced on the node's frequency set, one verdict per engine and node.
	NodesEvaluated int64
	// CacheHits and CacheMisses count memoized-cache lookups.
	CacheHits   int64
	CacheMisses int64
	// RowsScanned counts the rows and entries the engine's roll-ups read:
	// the N rows when it built a base frequency set, then, per store miss,
	// the size (freqset.Set.Len) of the set the node was rolled up from,
	// and the hub's read when the miss built the hub too (freqset.Work),
	// whether or not a search later asks for the hub. Nodes another engine
	// already rolled up on a shared store cost nothing. The count repeats
	// at any GOMAXPROCS, unless concurrent engines share the store, as in
	// the experiment runner: then one engine's sets may or may not have
	// finished before another's fence.
	RowsScanned int64
	// Precompute is the time spent at engine construction readying the
	// store: the per-attribute, per-level generalization fragments and
	// losses, computed once per store.
	Precompute time.Duration
	// Evaluation is the cumulative time spent evaluating nodes.
	Evaluation time.Duration
}

// String renders the counters in one line for logs and reports.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d hits=%d misses=%d rows=%d precompute=%v eval=%v",
		s.NodesEvaluated, s.CacheHits, s.CacheMisses, s.RowsScanned, s.Precompute, s.Evaluation)
}

// MergeInto folds the counters into an algorithm Result.Stats map under
// engine_* keys (durations in milliseconds).
func (s Stats) MergeInto(m map[string]float64) {
	if m == nil {
		return
	}
	m["engine_nodes_evaluated"] = float64(s.NodesEvaluated)
	m["engine_cache_hits"] = float64(s.CacheHits)
	m["engine_cache_misses"] = float64(s.CacheMisses)
	m["engine_rows_scanned"] = float64(s.RowsScanned)
	m["engine_precompute_ms"] = float64(s.Precompute) / float64(time.Millisecond)
	m["engine_eval_ms"] = float64(s.Evaluation) / float64(time.Millisecond)
}

// instruments holds the engine's registered metric handles, looked up once
// at construction so the hot paths never touch the registry's lock.
type instruments struct {
	reg            *telemetry.Registry
	nodesEvaluated *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	rowsScanned    *telemetry.Counter
	precomputeNS   *telemetry.Counter
	evalTotalNS    *telemetry.Counter
	rollups        *telemetry.Counter
	evalHist       *telemetry.Histogram
	// visited counts node evaluations per lattice height, index = height.
	visited []*telemetry.Counter
}

// newInstruments registers the engine's metrics in a fresh run registry
// (parented to the active Collector's registry, if any). height is the
// lattice height, bounding the per-level visit counters.
func newInstruments(height int) *instruments {
	reg := telemetry.NewRunRegistry()
	ins := &instruments{
		reg:            reg,
		nodesEvaluated: reg.Counter(MetricNodesEvaluated),
		cacheHits:      reg.Counter(MetricCacheHit),
		cacheMisses:    reg.Counter(MetricCacheMiss),
		rowsScanned:    reg.Counter(MetricRowsScanned),
		precomputeNS:   reg.Counter(MetricPrecomputeNS),
		evalTotalNS:    reg.Counter(MetricEvalTotalNS),
		rollups:        reg.Counter(MetricRollups),
		evalHist:       reg.Histogram(MetricEvalHistogram, evalBuckets),
		visited:        make([]*telemetry.Counter, height+1),
	}
	for h := range ins.visited {
		ins.visited[h] = reg.Counter(fmt.Sprintf("%s%d", MetricVisitedPrefix, h))
	}
	return ins
}

func (c *instruments) snapshot() Stats {
	return Stats{
		NodesEvaluated: c.nodesEvaluated.Value(),
		CacheHits:      c.cacheHits.Value(),
		CacheMisses:    c.cacheMisses.Value(),
		RowsScanned:    c.rowsScanned.Value(),
		Precompute:     time.Duration(c.precomputeNS.Value()),
		Evaluation:     time.Duration(c.evalTotalNS.Value()),
	}
}

// Canceled is the error a cancelled engine operation returns: it wraps the
// context error (errors.Is(err, context.Canceled) holds) and carries the
// partial counters accumulated before the cancellation, so long searches
// abort promptly but still report how far they got.
type Canceled struct {
	// Stats is the engine's counter snapshot at cancellation time.
	Stats Stats
	err   error
}

// Error implements error.
func (c *Canceled) Error() string {
	return fmt.Sprintf("engine: evaluation stopped after %d nodes: %v", c.Stats.NodesEvaluated, c.err)
}

// Unwrap exposes the underlying context error.
func (c *Canceled) Unwrap() error { return c.err }
