// Command microbench is the repository benchmark. It builds one workload's
// inputs from a seed, runs the workload's job in a closed loop with one
// client for a fixed time, checks every job's outputs, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones, one
// "workload metric value unit" line each and then one JSON line:
//
//	microbench -workload lattice-k -seed 1 -seconds 12 -trace 0
//
// It calls only the public functions of the program's packages and times
// them from outside. README.md describes the workloads, the metrics and how
// to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"microdata/internal/telemetry"
	"microdata/internal/telemetry/perf"
)

const (
	// deadline bounds a whole run; jobs still running then are cancelled
	// and count as failed.
	deadline = 170 * time.Second
	// An end-to-end run times set-up at least setupReps times, and again
	// while set-up has taken less than setupSpan in all, at most
	// setupMaxReps times, and reports the median.
	setupReps    = 3
	setupSpan    = time.Second
	setupMaxReps = 25
	// setupBatch is the shortest time one set-up sample covers: quicker
	// set-ups run back to back until it has passed and the sample is their
	// mean. A set-up of a few milliseconds takes half again as long when a
	// garbage collection lands in it, and one does in about half of them.
	setupBatch = 50 * time.Millisecond
	// minJobs is the fewest timed jobs an end-to-end run makes, however
	// long they take, so that a median never rests on one job.
	minJobs = 2
)

func main() {
	os.Exit(run(os.Args[1:], defaultSizes, os.Stdout, os.Stderr))
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	pack        string
	chromeTrace string
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every job passed its checks, 2 when one failed, 6 for bad flags and 1 when
// the run could not be measured at all.
func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	all := workloads(sz)
	var names []string
	for _, w := range all {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("microbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 12, "seconds of timed jobs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.pack, "pack", "", "also write the samples behind every metric as a sealed perf pack to this file")
	fs.StringVar(&o.chromeTrace, "chrome-trace", "", "with -trace 1, also write the traced jobs' spans as a Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return perf.ExitInvalid
	}
	var w *workload
	for i := range all {
		if all[i].name == o.workload {
			w = &all[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "microbench: unknown workload %q (one of %s)\n", o.workload, strings.Join(names, ", "))
		return perf.ExitInvalid
	case o.seconds < 1:
		fmt.Fprintln(stderr, "microbench: -seconds must be at least 1")
		return perf.ExitInvalid
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "microbench: -trace must be 0 or 1")
		return perf.ExitInvalid
	}
	o.trace = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	measure, catalog := measureEndToEnd, endToEnd
	if o.trace {
		measure, catalog = measureLayers, perLayer
	}
	res, err := measure(ctx, *w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return perf.ExitFailure
	}
	if o.pack != "" {
		if err := res.writePack(o.pack, catalog); err != nil {
			fmt.Fprintln(stderr, "microbench: pack:", err)
			return perf.ExitFailure
		}
	}
	if err := res.report(stdout, catalog); err != nil {
		fmt.Fprintln(stderr, "microbench:", err)
		return perf.ExitFailure
	}
	if res.failed > 0 {
		return perf.ExitVerification
	}
	return perf.ExitOK
}

// result is one run's measurements: the samples behind every metric.
type result struct {
	workload string
	inst     *instance
	trace    bool
	samples  map[string][]float64
	// attempted counts every job run, warm-up included; failed those that
	// returned an error or failed a check.
	attempted, failed int
	timed, warmup     int
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// value is a metric's reported value: the median of its samples, 0 when a
// layer was never called.
func (r *result) value(name string) float64 {
	if len(r.samples[name]) == 0 {
		return 0
	}
	return perf.Median(r.samples[name])
}

// report prints one "workload metric value unit" line per metric and then
// the JSON summary line.
func (r *result) report(w io.Writer, catalog []metric) error {
	fmt.Fprintf(w, "# %s seed %d: %d timed jobs after %d warm-up, %d attempted, %d failed\n",
		r.workload, r.inst.seed, r.timed, r.warmup, r.attempted, r.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range catalog {
		v := r.value(m.name)
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writePack seals the run's samples as a perf pack: one benchmark entry
// named after the workload, one series per metric.
func (r *result) writePack(path string, catalog []metric) error {
	env := perf.CaptureEnv()
	env.Seed, env.N, env.K = r.inst.seed, r.inst.n, r.inst.k
	suite := "benchmark"
	if r.trace {
		suite = "benchmark-trace"
	}
	b := perf.Benchmark{Name: r.workload, Metrics: map[string]perf.Series{}}
	for _, m := range catalog {
		samples := r.samples[m.name]
		if len(samples) == 0 {
			samples = []float64{0}
		}
		b.Metrics[m.name] = perf.NewSeries(m.unit, samples)
	}
	p := &perf.Pack{
		Schema:        perf.Schema,
		Version:       perf.Version,
		Suite:         suite,
		Reps:          r.timed,
		CreatedUnixMS: time.Now().UnixMilli(),
		Env:           env,
		Benchmarks:    []perf.Benchmark{b},
	}
	return p.WriteFile(path)
}

// measureEndToEnd sets the workload up several times, runs its warm-up jobs
// and then timed jobs for o.seconds, all untraced.
func measureEndToEnd(ctx context.Context, w workload, o options, stderr io.Writer) (*result, error) {
	inst, setups, err := setUp(ctx, w, o.seed, setupReps, setupSpan)
	if err != nil {
		return nil, err
	}
	r := &runner{inst: inst, stderr: stderr}
	res := &result{workload: w.name, inst: inst, samples: map[string][]float64{"setup_s": setups}}
	r.warmUp(ctx, w.warmup)
	for _, rec := range r.pass(ctx, time.Duration(o.seconds)*time.Second, minJobs) {
		if rec.ok {
			res.add("job_s", rec.wall.Seconds())
			res.add("cpu_s", rec.cpu.Seconds())
			res.add("peak_rss_mb", float64(rec.peakRSS)/(1<<20))
		}
		res.timed++
	}
	res.attempted, res.failed, res.warmup = r.attempted, r.failed, w.warmup
	return res, nil
}

// measureLayers splits o.seconds into three passes after the warm-up: an
// untraced one, a traced one with the telemetry collector installed and a
// span around every call the benchmark makes, and an untraced one at
// GOMAXPROCS=1. The traced pass gives the per-layer numbers, and the other
// two the tracing overhead and the speedup from parallelism.
func measureLayers(ctx context.Context, w workload, o options, stderr io.Writer) (*result, error) {
	inst, _, err := setUp(ctx, w, o.seed, 1, 0)
	if err != nil {
		return nil, err
	}
	r := &runner{inst: inst, stderr: stderr}
	res := &result{workload: w.name, inst: inst, trace: true, samples: map[string][]float64{}}
	r.warmUp(ctx, w.warmup)
	third := time.Duration(o.seconds) * time.Second / 3

	plain := r.pass(ctx, third, 1)
	col := telemetry.NewCollector()
	telemetry.SetCollector(col)
	tracedRecs := r.pass(ctx, third, 1)
	telemetry.SetCollector(nil)
	procs := runtime.GOMAXPROCS(1)
	single := r.pass(ctx, third, 1)
	runtime.GOMAXPROCS(procs)

	spans := col.Tracer.Finished()
	for _, rec := range tracedRecs {
		if !rec.ok {
			continue
		}
		for name, v := range jobLayers(spans, rec, inst.csvMB) {
			res.add(name, v)
		}
	}
	for _, rec := range plain {
		if rec.ok {
			res.add("go.alloc_mb", rec.allocBytes/(1<<20))
			res.add("go.gc_cycles", rec.gcCycles)
			res.add("go.gc_pause_ms", rec.gcPauseS*1e3)
		}
	}
	base := medianWall(plain)
	if base > 0 {
		res.add("kernels.speedup", medianWall(single)/base)
		res.add("trace.overhead", medianWall(tracedRecs)/base-1)
	}
	if err := inputMetrics(res, inst); err != nil {
		return nil, err
	}
	if o.chromeTrace != "" {
		if err := writeChromeTrace(o.chromeTrace, col); err != nil {
			return nil, err
		}
	}
	res.timed = len(plain) + len(tracedRecs) + len(single)
	res.attempted, res.failed, res.warmup = r.attempted, r.failed, w.warmup
	return res, nil
}

func writeChromeTrace(path string, col *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setUp builds the workload's inputs and returns the last instance and at
// least reps samples of the seconds one set-up takes, more while the
// samples cover less than span in all (at most setupMaxReps). Each sample
// covers one set-up, or a batch of at least setupBatch.
func setUp(ctx context.Context, w workload, seed int64, reps int, span time.Duration) (*instance, []float64, error) {
	var inst *instance
	var times []float64
	var total time.Duration
	for len(times) < reps || (total < span && len(times) < setupMaxReps) {
		// Drop the previous inputs first, so that two sets never share
		// the heap.
		inst = nil
		runtime.GC()
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < setupBatch {
			inst = nil
			var err error
			if inst, err = w.setup(ctx, seed); err != nil {
				return nil, nil, fmt.Errorf("set up %s: %w", w.name, err)
			}
			n++
		}
		d := time.Since(start)
		times = append(times, d.Seconds()/float64(n))
		total += d
	}
	return inst, times, nil
}

// runner runs one instance's jobs and keeps the run's failure count.
type runner struct {
	inst   *instance
	stderr io.Writer
	// digest is the first verified job's digest, which every later job
	// must repeat.
	digest     string
	haveDigest bool
	attempted  int
	failed     int
}

// jobRecord is one job's measurements.
type jobRecord struct {
	ok        bool
	wall, cpu time.Duration
	// peakRSS is the most memory the process held resident during the job,
	// in bytes.
	peakRSS int64
	// allocBytes, gcCycles and gcPauseS are the Go runtime's heap
	// allocation, collections and estimated pause time over the job.
	allocBytes, gcCycles, gcPauseS float64
	// span is the job's root span, and counters the change in the
	// collector's counters over the job, when the job was traced.
	span     *telemetry.Span
	counters map[string]int64
	out      outcome
}

func (r *runner) warmUp(ctx context.Context, jobs int) {
	for i := 0; i < jobs && ctx.Err() == nil; i++ {
		r.job(ctx)
	}
}

// pass runs jobs until budget has elapsed and at least min jobs have run.
func (r *runner) pass(ctx context.Context, budget time.Duration, min int) []jobRecord {
	start := time.Now()
	var recs []jobRecord
	for (len(recs) < min || time.Since(start) < budget) && ctx.Err() == nil {
		recs = append(recs, r.job(ctx))
	}
	return recs
}

// job runs one job after a garbage collection, times it, and checks its
// outputs once the timer has stopped. A job that returns an error or fails
// a check counts as failed.
func (r *runner) job(ctx context.Context) jobRecord {
	r.attempted++
	runtime.GC()
	col := telemetry.Active()
	var c0 map[string]int64
	if col != nil {
		c0 = col.Metrics.Snapshot().Counters
	}
	u0 := readUsage()
	rss := watchRSS()
	jctx, sp := telemetry.Start(ctx, "bench.job")
	start := time.Now()
	out, err := r.inst.job(jctx)
	wall := time.Since(start)
	sp.End()
	peak := rss.stop()
	u1 := readUsage()
	rec := jobRecord{
		wall:       wall,
		cpu:        u1.cpu - u0.cpu,
		peakRSS:    peak,
		allocBytes: u1.allocBytes - u0.allocBytes,
		gcCycles:   u1.gcCycles - u0.gcCycles,
		gcPauseS:   u1.gcPauseS - u0.gcPauseS,
		span:       sp,
		out:        out,
	}
	if col != nil {
		rec.counters = map[string]int64{}
		for name, v := range col.Metrics.Snapshot().Counters {
			rec.counters[name] = v - c0[name]
		}
	}
	if err == nil {
		err = r.check(out)
	}
	// The outputs the check needed must not outlive the job: later jobs
	// would pay for them in memory.
	rec.out.verify = nil
	if err != nil {
		r.failed++
		fmt.Fprintf(r.stderr, "microbench: job %d failed: %v\n", r.attempted, err)
		return rec
	}
	rec.ok = true
	return rec
}

func (r *runner) check(out outcome) error {
	digest, err := out.verify()
	if err != nil {
		return err
	}
	if !r.haveDigest {
		r.digest, r.haveDigest = digest, true
		return nil
	}
	if digest != r.digest {
		return errors.New("outputs differ from the first checked job's")
	}
	return nil
}

func medianWall(recs []jobRecord) float64 {
	var walls []float64
	for _, rec := range recs {
		if rec.ok {
			walls = append(walls, rec.wall.Seconds())
		}
	}
	if len(walls) == 0 {
		return 0
	}
	return perf.Median(walls)
}

// usage is a reading of the process's cumulative resource use.
type usage struct {
	cpu                            time.Duration
	allocBytes, gcCycles, gcPauseS float64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	rs := telemetry.ReadRuntimeStats()
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: allocatedBytes(),
		gcCycles:   rs.GCCycles,
		gcPauseS:   rs.GCPauseTotalSeconds,
	}
}

// allocatedBytes is the heap the process has allocated since it started.
func allocatedBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// rssEvery is how often watchRSS samples the resident set. The Go heap
// grows and shrinks over many milliseconds, so a peak lasts long enough to
// be seen.
const rssEvery = 5 * time.Millisecond

// rssWatch samples the process's resident set size until stopped.
type rssWatch struct {
	done chan struct{}
	peak chan int64
}

// watchRSS starts a goroutine that samples the resident set every rssEvery;
// stop ends it and returns the largest sample.
func watchRSS() *rssWatch {
	w := &rssWatch{done: make(chan struct{}), peak: make(chan int64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := residentBytes()
		for {
			select {
			case <-w.done:
				w.peak <- max(peak, residentBytes())
				return
			case <-t.C:
				peak = max(peak, residentBytes())
			}
		}
	}()
	return w
}

func (w *rssWatch) stop() int64 {
	close(w.done)
	return <-w.peak
}

// residentBytes reads the process's resident set size from
// /proc/self/statm; it is 0 where that file does not exist.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// traced runs fn under a span named after the call it makes, so that the
// traced run attributes the call's time, and the heap it allocates, to the
// call's layer. Untraced, the span is nil and costs one atomic load.
func traced(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, sp := telemetry.Start(ctx, name)
	if sp == nil {
		return fn(ctx)
	}
	defer sp.End()
	before := allocatedBytes()
	err := fn(ctx)
	sp.SetAttr(telemetry.Int64(attrAlloc, int64(allocatedBytes()-before)))
	return err
}
