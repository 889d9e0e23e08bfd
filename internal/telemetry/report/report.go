// Package report assembles the single versioned JSON run report the CLIs
// emit with -report: one schema that merges what used to be scattered
// across -enginestats stdout tables, -metrics snapshots and ad-hoc prints —
// engine and attack counter roll-ups, per-phase wall clocks derived from
// the recorded spans, the runtime-health gauges and the full metrics
// snapshot.
// DESIGN.md ("Run-report schema") documents the schema; Version gates
// consumers against shape changes.
package report

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"microdata/internal/telemetry"
)

// Schema identifies the document type; Version is bumped on any
// backwards-incompatible shape change. v2 adds the ResultPack link tying
// a run report to the sealed result pack the same invocation produced; v3
// drops the progress-tracker tree.
const (
	Schema  = "microdata/run-report"
	Version = 3
)

// Report is the unified run report. Scalar roll-ups (Engine, Attack,
// PhasesMS) are derived views over the Metrics snapshot and span tree for
// easy consumption; Metrics remains the complete record.
type Report struct {
	// Schema is always "microdata/run-report"; Version is the schema
	// version of this document.
	Schema  string `json:"schema"`
	Version int    `json:"version"`

	// Command and Mode identify the producing invocation.
	Command string `json:"command"`
	Mode    string `json:"mode,omitempty"`
	// Start and DurationMS bracket the run's wall clock.
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`

	// Engine and Attack are counter roll-ups; omitted when the run never
	// touched the corresponding subsystem.
	Engine *EngineSummary `json:"engine,omitempty"`
	Attack *AttackSummary `json:"attack,omitempty"`
	// PhasesMS sums, per span name, the recorded span durations — the
	// per-phase wall-clock table -enginestats prints, machine-readable.
	PhasesMS map[string]float64 `json:"phases_ms,omitempty"`
	// Runtime holds the go.* runtime-health gauges (heap, GC pause total,
	// goroutines, scheduler latency) sampled from runtime/metrics at
	// report-assembly time — the same series a -metrics snapshot carries.
	// Additive in schema v1.
	Runtime map[string]float64 `json:"runtime,omitempty"`
	// ResultPack links the sealed result pack this invocation wrote
	// (-result-out): its path and manifest digest, so the performance
	// record and the correctness record of one run reference each other.
	// New in schema v2.
	ResultPack *ResultPackRef `json:"result_pack,omitempty"`
	// Metrics is the full end-of-run snapshot of the process-wide registry.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// EngineSummary rolls up the evaluation engine's counters (engine.* and
// lattice.* metric names).
type EngineSummary struct {
	NodesEvaluated int64   `json:"nodes_evaluated"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	RowsScanned    int64   `json:"rows_scanned"`
	PrecomputeMS   float64 `json:"precompute_ms"`
	EvalMS         float64 `json:"eval_ms"`
}

// AttackSummary rolls up the record-linkage adversary's counters (attack.*
// metric names).
type AttackSummary struct {
	RegionsProbed    int64   `json:"regions_probed"`
	CandidatesPruned int64   `json:"candidates_pruned"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	IndexBuildMS     float64 `json:"index_build_ms"`
}

// ResultPackRef identifies a sealed result pack by path and manifest
// digest (the SHA-256 over its canonical manifest-less encoding).
type ResultPackRef struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
}

// Builder accumulates a run's identity; Finish snapshots the telemetry
// state into a Report.
type Builder struct {
	command    string
	mode       string
	start      time.Time
	resultPack *ResultPackRef
}

// SetResultPack links the result pack the run sealed (no-op with an empty
// digest, so callers can pass through unconditionally).
func (b *Builder) SetResultPack(path, sha256 string) {
	if sha256 == "" {
		return
	}
	b.resultPack = &ResultPackRef{Path: path, SHA256: sha256}
}

// Begin starts a report for one CLI invocation.
func Begin(command, mode string) *Builder {
	return &Builder{command: command, mode: mode, start: time.Now()}
}

// Finish assembles the report from the collector's spans and metrics (col
// may be nil).
func (b *Builder) Finish(col *telemetry.Collector) *Report {
	r := &Report{
		Schema:     Schema,
		Version:    Version,
		Command:    b.command,
		Mode:       b.mode,
		Start:      b.start,
		DurationMS: float64(time.Since(b.start)) / float64(time.Millisecond),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Runtime:    telemetry.ReadRuntimeStats().Gauges(),
		ResultPack: b.resultPack,
	}
	if col != nil && col.Metrics != nil {
		snap := col.Metrics.Snapshot()
		r.Metrics = &snap
		r.Engine = engineSummary(snap)
		r.Attack = attackSummary(snap)
	}
	if col != nil && col.Tracer != nil {
		if phases := phaseDurations(col.Tracer); len(phases) > 0 {
			r.PhasesMS = phases
		}
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// phaseDurations sums recorded span durations by name.
func phaseDurations(tr *telemetry.Tracer) map[string]float64 {
	out := map[string]float64{}
	for _, sp := range tr.Finished() {
		out[sp.Name] += float64(sp.Duration()) / float64(time.Millisecond)
	}
	return out
}

// engineSummary derives the engine roll-up from the metric names the
// engine registers (see engine.Metric*); nil when the engine never ran.
func engineSummary(s telemetry.Snapshot) *EngineSummary {
	if _, ok := s.Counters["engine.nodes.evaluated"]; !ok {
		return nil
	}
	return &EngineSummary{
		NodesEvaluated: s.Counters["engine.nodes.evaluated"],
		CacheHits:      s.Counters["engine.cache.hit"],
		CacheMisses:    s.Counters["engine.cache.miss"],
		RowsScanned:    s.Counters["engine.rows.scanned"],
		PrecomputeMS:   float64(s.Counters["engine.precompute.ns"]) / 1e6,
		EvalMS:         float64(s.Counters["engine.eval.total_ns"]) / 1e6,
	}
}

// attackSummary derives the adversary roll-up from the attack.* metric
// names; nil when no adversary was built.
func attackSummary(s telemetry.Snapshot) *AttackSummary {
	if _, ok := s.Counters["attack.index.build.ns"]; !ok {
		return nil
	}
	return &AttackSummary{
		RegionsProbed:    s.Counters["attack.regions.probed"],
		CandidatesPruned: s.Counters["attack.candidates.pruned"],
		CacheHits:        s.Counters["attack.cache.hit"],
		CacheMisses:      s.Counters["attack.cache.miss"],
		IndexBuildMS:     float64(s.Counters["attack.index.build.ns"]) / 1e6,
	}
}
