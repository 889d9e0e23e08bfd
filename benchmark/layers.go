package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/eqclass"
	"microdata/internal/stats"
	"microdata/internal/telemetry"
)

// metric is one reported number: its name and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the program sees. Every workload
// reports all of them, from an untraced run.
var endToEnd = []metric{
	{"job_s", "s"},        // median wall time of a timed job
	{"cpu_s", "s"},        // median user+system CPU time of a timed job
	{"peak_rss_mb", "MB"}, // peak resident memory of the run's process
	{"setup_s", "s"},      // median time to build the workload's inputs
}

// perLayer are the traced run's metrics, each named after the layer whose
// calls it times or counts. Times and counts are per job (the median over
// the traced jobs); a layer a workload does not call reads 0 there.
// README.md says which end-to-end metric each should move on which
// workload.
var perLayer = []metric{
	{"dataset.ingest_s", "s"},
	{"dataset.ingest_mb_per_s", "MB/s"},
	{"dataset.ingest_alloc_mb", "MB"},
	{"dataset.write_s", "s"},
	{"engine.precompute_s", "s"},
	{"engine.eval_s", "s"},
	{"engine.nodes_evaluated", "count"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.rows_scanned", "count"},
	{"engine.eval_ms_per_node", "ms"},
	{"algorithm.search_s", "s"},
	{"algorithm.materialize_s", "s"},
	{"measure.context_s", "s"},
	{"measure.vectors_s", "s"},
	{"measure.summary_s", "s"},
	{"attack.index_s", "s"},
	{"attack.prosecutor_s", "s"},
	{"attack.journalist_s", "s"},
	{"attack.regions", "count"},
	{"attack.victim_cache_hit_ratio", "ratio"},
	{"core.tournament_s", "s"},
	{"core.comparisons", "count"},
	{"experiment.replay_s", "s"},
	{"resultpack.diff_s", "s"},
	{"kernels.speedup", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.span_coverage", "ratio"},
	{"input.distinct_ratio_p50", "ratio"},
	{"input.distinct_ratio_p90", "ratio"},
	{"input.distinct_ratio_max", "ratio"},
	{"input.release_classes", "count"},
	{"input.csv_mb", "MB"},
}

// attrAlloc is the span attribute traced records a call's heap allocation
// in, in bytes.
const attrAlloc = "alloc_bytes"

// jobLayers computes one traced job's per-layer numbers from the spans
// recorded under its root span and the change in the collector's counters
// over the job. The benchmark's own spans are named after the call they
// wrap ("dataset.IngestCSVTable"); the program's spans ("optimal.search",
// "attack.index.build") split the time inside those calls.
func jobLayers(all []*telemetry.Span, rec jobRecord, csvMB float64) map[string]float64 {
	spans := descendants(all, rec.span)
	named := map[string][]*telemetry.Span{}
	for _, s := range spans {
		named[s.Name] = append(named[s.Name], s)
	}
	// seconds sums the spans called name, less the time of their
	// descendants called any of exclude.
	seconds := func(name string, exclude ...string) float64 {
		var d time.Duration
		for _, s := range named[name] {
			d += s.Duration()
			if len(exclude) > 0 {
				sub := telemetry.SubtreeDurations(spans, s)
				for _, e := range exclude {
					d -= sub[e]
				}
			}
		}
		return d.Seconds()
	}
	c := rec.counters
	v := map[string]float64{
		"dataset.ingest_s":        seconds("dataset.IngestCSVTable"),
		"dataset.ingest_alloc_mb": float64(sumAttr(named["dataset.IngestCSVTable"], attrAlloc)) / (1 << 20),
		"dataset.write_s":         seconds("dataset.WriteCSV"),
		"engine.precompute_s":     float64(c[engine.MetricPrecomputeNS]) / 1e9,
		"engine.eval_s":           float64(c[engine.MetricEvalTotalNS]) / 1e9,
		"engine.nodes_evaluated":  float64(c[engine.MetricNodesEvaluated]),
		"engine.cache_hit_ratio":  ratio(c[engine.MetricCacheHit], c[engine.MetricCacheHit]+c[engine.MetricCacheMiss]),
		"engine.rows_scanned":     float64(c[engine.MetricRowsScanned]),
		"engine.eval_ms_per_node": ratio(c[engine.MetricEvalTotalNS], c[engine.MetricNodesEvaluated]) / 1e6,
		"algorithm.materialize_s": seconds("algorithm.materialize"),
		"measure.context_s":       seconds("measure.NewContext"),
		"measure.vectors_s":       seconds("measure.Measure"),
		"measure.summary_s":       seconds("measure.Summarize"),
		"attack.index_s":          seconds("attack.index.build"),
		"attack.prosecutor_s":     seconds("attack.prosecutor", "attack.index.build"),
		"attack.journalist_s":     seconds("attack.journalist", "attack.index.build"),
		"attack.regions":          float64(sumAttr(named["attack.index.build"], "regions")),
		"attack.victim_cache_hit_ratio": ratio(c["attack.cache.hit"],
			c["attack.cache.hit"]+c["attack.cache.miss"]),
		"core.tournament_s":   seconds("core.Tournament"),
		"core.comparisons":    float64(rec.out.comparisons),
		"experiment.replay_s": seconds("experiment.ReplayPack"),
		"resultpack.diff_s":   seconds("resultpack.Diff"),
		"trace.span_coverage": coverage(spans, rec.span),
	}
	if ingest := v["dataset.ingest_s"]; ingest > 0 {
		v["dataset.ingest_mb_per_s"] = csvMB / ingest
	}
	// A search's own time is its span less the engine's precompute and the
	// final materialization, the split anonbench -enginestats prints.
	search := 0.0
	for name := range named {
		if strings.HasSuffix(name, ".search") {
			search += seconds(name, "engine.precompute", "algorithm.materialize")
		}
	}
	v["algorithm.search_s"] = search
	classes := 0.0
	for _, n := range rec.out.classes {
		classes += float64(n)
	}
	if len(rec.out.classes) > 0 {
		v["input.release_classes"] = classes / float64(len(rec.out.classes))
	}
	return v
}

// descendants returns the spans under root, root excluded.
func descendants(all []*telemetry.Span, root *telemetry.Span) []*telemetry.Span {
	children := map[uint64][]*telemetry.Span{}
	for _, s := range all {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var out []*telemetry.Span
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, c := range children[id] {
			out = append(out, c)
			walk(c.ID)
		}
	}
	walk(root.ID)
	return out
}

// coverage is the share of root's time its direct children cover: how much
// of a job the benchmark's spans attribute to a layer. The benchmark's
// calls run one after another, so their durations do not overlap.
func coverage(spans []*telemetry.Span, root *telemetry.Span) float64 {
	var covered time.Duration
	for _, s := range spans {
		if s.ParentID == root.ID {
			covered += s.Duration()
		}
	}
	return covered.Seconds() / root.Duration().Seconds()
}

func sumAttr(spans []*telemetry.Span, key string) int64 {
	var total int64
	for _, s := range spans {
		for _, a := range s.Attrs() {
			if n, ok := a.Value.(int64); ok && a.Key == key {
				total += n
			}
		}
	}
	return total
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// distinctRatios returns D/N at every node of the census lattice, where D
// is the number of distinct generalized quasi-identifier tuples at the
// node. It bounds what pricing a node in distinct tuples instead of rows
// could save there.
func distinctRatios(tab *dataset.Table) ([]float64, error) {
	eng, err := engine.New(tab, censusConfig(1, 0))
	if err != nil {
		return nil, err
	}
	cols := make([][]uint32, eng.NumQI())
	cards := make([]int, eng.NumQI())
	var out []float64
	for _, node := range eng.Lattice().Nodes() {
		for li := range cols {
			if cols[li], err = eng.FragmentIDs(li, node[li]); err != nil {
				return nil, err
			}
			if cards[li], err = eng.DistinctAtLevel(li, node[li]); err != nil {
				return nil, err
			}
		}
		p, err := eqclass.FromCodes(cols, cards)
		if err != nil {
			return nil, fmt.Errorf("group node %v: %w", node, err)
		}
		out = append(out, float64(p.NumClasses())/float64(tab.Len()))
	}
	sort.Float64s(out)
	return out, nil
}

// inputMetrics records the input properties the gains of a later change
// depend on.
func inputMetrics(res *result, inst *instance) error {
	tab, err := inst.census()
	if err != nil {
		return err
	}
	ratios, err := distinctRatios(tab)
	if err != nil {
		return fmt.Errorf("distinct ratios: %w", err)
	}
	res.add("input.distinct_ratio_p50", stats.Quantile(ratios, 0.5))
	res.add("input.distinct_ratio_p90", stats.Quantile(ratios, 0.9))
	res.add("input.distinct_ratio_max", stats.Max(ratios))
	res.add("input.csv_mb", inst.csvMB)
	return nil
}
