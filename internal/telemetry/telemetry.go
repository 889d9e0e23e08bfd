// Package telemetry is the dependency-light observability layer shared by
// the evaluation engine, the disclosure control algorithms, the experiment
// runner and the commands. It provides three coordinated facilities:
//
//   - Hierarchical SPANS: telemetry.Start(ctx, "samarati.search") opens a
//     span, stores it in the returned context so nested Start calls link
//     parent to child, and records name, attributes and duration on End.
//     Finished spans can be exported in Chrome trace_event format
//     (chrome://tracing, Perfetto) via Tracer.WriteChromeTrace.
//
//   - A METRICS REGISTRY of named counters, gauges and fixed-bucket
//     histograms, safe for concurrent use from the engine's EvaluateAll
//     worker pool. Registries can be parented: a per-run or per-engine
//     registry forwards every increment to the process-wide registry of the
//     active Collector, so local snapshots (Result.Stats, engine.Stats)
//     and the global -metrics export stay consistent without double
//     bookkeeping.
//
//   - STRUCTURED LOGGING on log/slog with a package-level, swappable
//     handler. The default handler discards everything; CLIs install text
//     or JSON handlers via -v / -log-format.
//
// Telemetry is DISABLED by default: no Collector is installed, Start
// returns immediately after one atomic load (~1–2 ns, see the package
// benchmarks), nil *Span methods are no-ops, and the default logger's
// handler reports Enabled=false for every level. Instrumentation sites
// therefore cost nothing measurable on production hot paths until a
// Collector is installed with SetCollector.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Collector bundles the process-wide telemetry sinks: a span tracer and a
// metrics registry. Install one with SetCollector to enable telemetry.
type Collector struct {
	// Tracer records finished spans for export.
	Tracer *Tracer
	// Metrics is the process-wide registry run-scoped registries parent to.
	Metrics *Registry
}

// CollectorOption customizes NewCollector.
type CollectorOption func(*Collector)

// WithClock injects the time source used for span timestamps — tests
// inject a deterministic fake clock so trace exports are golden-testable.
func WithClock(now func() time.Time) CollectorOption {
	return func(c *Collector) { c.Tracer.now = now }
}

// NewCollector returns a Collector with a fresh Tracer and Registry.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{Tracer: newTracer(time.Now), Metrics: NewRegistry()}
	for _, o := range opts {
		o(c)
	}
	c.Tracer.epoch = c.Tracer.now()
	return c
}

// active is the installed Collector; nil means telemetry is disabled.
var active atomic.Pointer[Collector]

// SetCollector installs (or, with nil, removes) the process-wide Collector.
// It returns the previously installed Collector so callers can restore it.
func SetCollector(c *Collector) *Collector {
	return active.Swap(c)
}

// Active returns the installed Collector, or nil when telemetry is
// disabled.
func Active() *Collector { return active.Load() }

// NewRunRegistry returns a registry for one run (one engine, one algorithm
// invocation). When a Collector is active the registry is parented to the
// Collector's process-wide registry, so every local increment is also
// visible in the global -metrics snapshot; otherwise it is standalone.
func NewRunRegistry() *Registry {
	r := NewRegistry()
	if c := Active(); c != nil && c.Metrics != nil {
		r.parent = c.Metrics
	}
	return r
}
