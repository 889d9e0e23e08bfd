package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// RuntimeStats is one sample of the Go runtime's health, read from the
// runtime/metrics interface (the supported successor to ad-hoc
// runtime.ReadMemStats scraping). It feeds two consumers: the run
// report's runtime gauges and the perf harness's per-repetition health
// series.
type RuntimeStats struct {
	// HeapObjectsBytes is live heap memory occupied by objects
	// (/memory/classes/heap/objects:bytes).
	HeapObjectsBytes float64
	// HeapTotalBytes is all memory mapped by the runtime
	// (/memory/classes/total:bytes).
	HeapTotalBytes float64
	// GCCycles counts completed GC cycles (/gc/cycles/total:gc-cycles).
	GCCycles float64
	// GCPauseTotalSeconds estimates cumulative stop-the-world pause time
	// from the /gc/pauses:seconds histogram (bucket-midpoint estimate —
	// runtime/metrics exposes distributions, not exact sums).
	GCPauseTotalSeconds float64
	// Goroutines is the live goroutine count (/sched/goroutines:goroutines).
	Goroutines float64
	// SchedLatencyP50Seconds / SchedLatencyP99Seconds are quantile
	// estimates of how long goroutines waited runnable before running
	// (/sched/latencies:seconds, bucket-midpoint interpolation).
	SchedLatencyP50Seconds float64
	SchedLatencyP99Seconds float64
	// GOMAXPROCS is the scheduler's processor limit.
	GOMAXPROCS float64
}

var runtimeSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
}

// ReadRuntimeStats samples the runtime/metrics interface once.
func ReadRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	rs := RuntimeStats{GOMAXPROCS: float64(runtime.GOMAXPROCS(0))}
	for _, s := range samples {
		switch s.Name {
		case "/memory/classes/heap/objects:bytes":
			rs.HeapObjectsBytes = sampleValue(s)
		case "/memory/classes/total:bytes":
			rs.HeapTotalBytes = sampleValue(s)
		case "/gc/cycles/total:gc-cycles":
			rs.GCCycles = sampleValue(s)
		case "/gc/pauses:seconds":
			if h := histOf(s); h != nil {
				rs.GCPauseTotalSeconds = histSum(h)
			}
		case "/sched/goroutines:goroutines":
			rs.Goroutines = sampleValue(s)
		case "/sched/latencies:seconds":
			if h := histOf(s); h != nil {
				rs.SchedLatencyP50Seconds = histQuantile(h, 0.50)
				rs.SchedLatencyP99Seconds = histQuantile(h, 0.99)
			}
		}
	}
	return rs
}

// Gauges flattens the sample into the metric names the run report
// publishes.
func (rs RuntimeStats) Gauges() map[string]float64 {
	return map[string]float64{
		"go.goroutines":                rs.Goroutines,
		"go.gomaxprocs":                rs.GOMAXPROCS,
		"go.heap.objects.bytes":        rs.HeapObjectsBytes,
		"go.mem.total.bytes":           rs.HeapTotalBytes,
		"go.gc.cycles":                 rs.GCCycles,
		"go.gc.pause.total.seconds":    rs.GCPauseTotalSeconds,
		"go.sched.latency.p50.seconds": rs.SchedLatencyP50Seconds,
		"go.sched.latency.p99.seconds": rs.SchedLatencyP99Seconds,
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return math.NaN()
	}
}

func histOf(s metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histSum estimates the total of a runtime histogram by bucket midpoints
// (infinite edge buckets are clamped to their finite neighbor).
func histSum(h *metrics.Float64Histogram) (sum float64) {
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		sum += float64(c) * bucketMid(h, i)
	}
	return sum
}

// histQuantile estimates quantile q (0..1) by cumulative bucket counts.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return bucketMid(h, i)
		}
	}
	return bucketMid(h, len(h.Counts)-1)
}

// bucketMid returns the midpoint of bucket i, clamping ±Inf edges.
func bucketMid(h *metrics.Float64Histogram, i int) float64 {
	lo, hi := h.Buckets[i], h.Buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = hi
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	return (lo + hi) / 2
}
