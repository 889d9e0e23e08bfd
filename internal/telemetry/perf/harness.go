package perf

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"microdata/internal/telemetry"
)

// The metric names every harness run records per benchmark. wall_ns and
// allocs are the gated pair (see DefaultGated); the rest are runtime
// health series recorded for trend analysis.
const (
	MetricWallNS     = "wall_ns"      // wall clock per repetition
	MetricAllocs     = "allocs"       // heap allocations per repetition
	MetricAllocBytes = "alloc_bytes"  // heap bytes allocated per repetition
	MetricGCPauseNS  = "gc_pause_ns"  // estimated GC pause time per repetition
	MetricGCCycles   = "gc_cycles"    // GC cycles per repetition
	MetricHeapBytes  = "heap_bytes"   // live heap at repetition end
	MetricGoroutines = "goroutines"   // goroutine count at repetition end
	MetricSchedP99NS = "sched_p99_ns" // scheduler latency p99 at repetition end
)

// BenchmarkSpec is one benchmark of a suite. Setup runs once, untimed, and
// returns the body the harness times; expensive fixtures (dataset
// generation, anonymization) belong in Setup so repetitions measure only
// the operation under test.
type BenchmarkSpec struct {
	Name  string
	Setup func(ctx context.Context) (func(ctx context.Context) error, error)
}

// SuiteSpec is a named set of benchmarks sharing a dataset fingerprint.
type SuiteSpec struct {
	Name string
	// DatasetHash/Seed/N/K describe the suite's primary input; they land
	// in the pack's environment fingerprint.
	DatasetHash string
	Seed        int64
	N, K        int
	Benchmarks  []BenchmarkSpec
}

// Options tunes a harness run.
type Options struct {
	// Reps is the number of timed repetitions per benchmark (default 5).
	Reps int
	// Warmup repetitions run before timing starts (default 1).
	Warmup int
	// Log, when non-nil, receives one progress line per benchmark.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// RunSuites runs one or more suites under the harness and assembles a
// single sealed pack. Benchmark names are prefixed with their suite name
// ("attack/prosecutor/datafly/indexed"), so packs from different
// suite selections compare by name intersection. The environment
// fingerprint records the first suite's dataset parameters (suites built
// from the same generator draw share them).
func RunSuites(ctx context.Context, suites []SuiteSpec, opts Options) (*Pack, error) {
	opts = opts.withDefaults()
	if len(suites) == 0 {
		return nil, Invalidf("perf: no suites selected")
	}
	env := CaptureEnv()
	env.DatasetHash = suites[0].DatasetHash
	env.Seed = suites[0].Seed
	env.N = suites[0].N
	env.K = suites[0].K
	pack := &Pack{
		Schema:        Schema,
		Version:       Version,
		Suite:         joinSuiteNames(suites),
		Reps:          opts.Reps,
		CreatedUnixMS: time.Now().UnixMilli(),
		Env:           env,
	}
	for _, suite := range suites {
		for _, spec := range suite.Benchmarks {
			name := suite.Name + "/" + spec.Name
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			bench, err := runBenchmark(ctx, name, spec, opts)
			if err != nil {
				return nil, fmt.Errorf("perf: %s: %w", name, err)
			}
			pack.Benchmarks = append(pack.Benchmarks, bench)
			opts.Log("  %-48s wall %s  allocs %.0f", name,
				fmtNS(bench.Metrics[MetricWallNS].Median), bench.Metrics[MetricAllocs].Median)
		}
	}
	if err := pack.Seal(); err != nil {
		return nil, err
	}
	return pack, nil
}

func joinSuiteNames(suites []SuiteSpec) string {
	out := ""
	for i, s := range suites {
		if i > 0 {
			out += ","
		}
		out += s.Name
	}
	return out
}

// runBenchmark runs one benchmark: setup, warmup, then Reps timed
// repetitions, each bracketed by MemStats and runtime/metrics samples.
func runBenchmark(ctx context.Context, name string, spec BenchmarkSpec, opts Options) (Benchmark, error) {
	body, err := spec.Setup(ctx)
	if err != nil {
		return Benchmark{}, fmt.Errorf("setup: %w", err)
	}
	for i := 0; i < opts.Warmup; i++ {
		if err := body(ctx); err != nil {
			return Benchmark{}, fmt.Errorf("warmup: %w", err)
		}
	}
	samples := map[string][]float64{}
	for rep := 0; rep < opts.Reps; rep++ {
		if err := ctx.Err(); err != nil {
			return Benchmark{}, err
		}
		// A forced GC between repetitions keeps collector debt from one
		// repetition out of the next one's pause and alloc deltas.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rs0 := telemetry.ReadRuntimeStats()
		start := time.Now()
		err := body(ctx)
		wall := time.Since(start)
		if err != nil {
			return Benchmark{}, err
		}
		rs1 := telemetry.ReadRuntimeStats()
		runtime.ReadMemStats(&m1)

		add := func(metric string, v float64) { samples[metric] = append(samples[metric], v) }
		add(MetricWallNS, float64(wall.Nanoseconds()))
		add(MetricAllocs, float64(m1.Mallocs-m0.Mallocs))
		add(MetricAllocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		add(MetricGCPauseNS, (rs1.GCPauseTotalSeconds-rs0.GCPauseTotalSeconds)*1e9)
		add(MetricGCCycles, rs1.GCCycles-rs0.GCCycles)
		add(MetricHeapBytes, rs1.HeapObjectsBytes)
		add(MetricGoroutines, rs1.Goroutines)
		add(MetricSchedP99NS, rs1.SchedLatencyP99Seconds*1e9)
	}
	bench := Benchmark{Name: name, Metrics: map[string]Series{}}
	for metric, s := range samples {
		bench.Metrics[metric] = NewSeries(metricUnit(metric), s)
	}
	return bench, nil
}

func metricUnit(metric string) string {
	switch metric {
	case MetricWallNS, MetricGCPauseNS, MetricSchedP99NS:
		return "ns"
	case MetricAllocBytes, MetricHeapBytes:
		return "bytes"
	default:
		return "count"
	}
}

func fmtNS(ns float64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
