// Command anonbench runs the paper-reproduction experiments (E1–E19): the
// tables and figures of "On the Comparison of Microdata Disclosure Control
// Algorithms" (EDBT 2009) plus the scaled algorithm-comparison studies.
//
// Usage:
//
//	anonbench -list
//	anonbench -run E4
//	anonbench -run all -n 5000 -ks 2,5,10,25,50 -seed 7
//	anonbench -enginestats -n 10000 -ks 5
//
// Exit codes follow the stable contract shared with benchdiff and compare
// (see README "Exit codes"): 0 ok, 1 failure, 6 invalid input (bad flags
// such as -n below 1 or a -ks value above -n, unknown experiment names).
//
// Observability (see README "Observability"):
//
//	anonbench -run E14 -v -log-format json
//	anonbench -run E1 -trace trace.json -metrics metrics.json
//	anonbench -enginestats -n 5000 -cpuprofile cpu.pprof -memprofile mem.pprof
//	anonbench -run E14 -report run.json                  # unified JSON run report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"microdata"
	"microdata/internal/telemetry/perf"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		run     = flag.String("run", "all", "experiment id (E1..E19) or \"all\"")
		n       = flag.Int("n", 1000, "synthetic census size for E14/E15")
		ks      = flag.String("ks", "2,5,10,25,50", "comma-separated k sweep for E14/E15")
		seed    = flag.Int64("seed", 1, "seed for the census draw and stochastic algorithms")
		engStat = flag.Bool("enginestats", false, "run every algorithm once on the census draw (first k of -ks) and print the evaluation-engine counters")

		verbose    = flag.Bool("v", false, "enable debug-level structured logging on stderr")
		logFormat  = flag.String("log-format", "", "structured log format: text or json (implies logging even without -v)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON file of the run's spans (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics", "", "write a metrics snapshot JSON file (\"-\" for stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")

		reportOut = flag.String("report", "", "write the unified JSON run report to this file (\"-\" for stdout)")
		resultOut = flag.String("result-out", "", "with -run: additionally capture the run's results (per-algorithm measures, attack risks, report digests) into a sealed result pack at this path (\"-\" for stdout; verify with `compare -verify`)")
	)
	flag.CommandLine.Init("anonbench", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(perf.ExitInvalid)
	}

	if err := realMain(options{
		list: *list, run: *run, n: *n, ks: *ks, seed: *seed, engStat: *engStat,
		verbose: *verbose, logFormat: *logFormat,
		traceOut: *traceOut, metricsOut: *metricsOut,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
		reportOut: *reportOut, resultOut: *resultOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "anonbench:", err)
		os.Exit(perf.ExitCode(err))
	}
}

type options struct {
	list                   bool
	run                    string
	n                      int
	ks                     string
	seed                   int64
	engStat                bool
	verbose                bool
	logFormat              string
	traceOut, metricsOut   string
	cpuProfile, memProfile string
	reportOut              string
	resultOut              string
}

// captureResults runs the selected experiments with the result-pack sink
// attached: the text reports still stream to stdout while the capture
// seals the per-algorithm measures, attack risks and report digests, and
// the run report links the pack's manifest digest.
func captureResults(ctx context.Context, rb *microdata.RunReportBuilder, opts microdata.ExperimentOptions, ids []string, out string) error {
	pack, err := microdata.CaptureResultPack(ctx, microdata.ResultCaptureConfig{
		Opts:         opts,
		Experiments:  ids,
		Algorithms:   true,
		Attack:       true,
		ReportWriter: os.Stdout,
	})
	if err != nil {
		return err
	}
	if err := microdata.WriteResultPack(pack, out); err != nil {
		return err
	}
	if out != "-" {
		fmt.Fprintf(os.Stderr, "anonbench: result pack sealed: %s (sha256:%s)\n", out, pack.Manifest.Digest)
	}
	rb.SetResultPack(out, pack.Manifest.Digest)
	return nil
}

// realMain wires the observability sinks around the selected mode so every
// mode (-run, -list, -enginestats) profiles and traces the same way.
func realMain(o options) error {
	if o.n < 1 {
		return perf.Invalidf("-n %d: census size must be at least 1", o.n)
	}
	kVals, err := parseKs(o.ks)
	if err != nil {
		return perf.Exit(perf.ExitInvalid, err)
	}
	for _, k := range kVals {
		if k > o.n {
			return perf.Invalidf("-ks %d exceeds the census size -n %d", k, o.n)
		}
	}
	opts := microdata.ExperimentOptions{CensusN: o.n, Ks: kVals, Seed: o.seed}
	if o.resultOut != "" && (o.list || o.engStat) {
		return perf.Invalidf("-result-out only applies to experiment runs (-run)")
	}

	if o.verbose || o.logFormat != "" {
		h, err := microdata.NewLogHandler(os.Stderr, o.logFormat, o.verbose)
		if err != nil {
			return perf.Exit(perf.ExitInvalid, err)
		}
		microdata.SetLogHandler(h)
	}

	// A collector is installed whenever any span or metrics consumer is
	// active: -trace and -metrics need it, -enginestats derives its
	// per-phase breakdown from the recorded spans, and -report merges all
	// of it.
	var col *microdata.TelemetryCollector
	if o.traceOut != "" || o.metricsOut != "" || o.engStat || o.reportOut != "" {
		col = microdata.NewTelemetryCollector()
		microdata.SetTelemetryCollector(col)
		defer microdata.SetTelemetryCollector(nil)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "anonbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "anonbench: memprofile:", err)
			}
		}()
	}

	// Sinks flush after the mode body returns (and after the run root span
	// ends), so the deferred writers run last-in-first-out before the
	// profile defers above.
	rb := microdata.BeginRunReport("anonbench", mode(o))
	var runErr error
	func() {
		ctx, sp := microdata.StartSpan(context.Background(), "anonbench.run",
			microdata.SpanString("mode", mode(o)),
			microdata.SpanInt("n", o.n), microdata.SpanInt64("seed", o.seed))
		defer sp.End()

		switch {
		case o.engStat:
			runErr = engineStats(ctx, os.Stdout, o.n, kVals[0], o.seed, col)
		case o.list:
			fmt.Println("Experiments (see DESIGN.md for the per-experiment index):")
			for _, e := range microdata.Experiments(opts) {
				fmt.Printf("  %-4s %-62s [%s]\n", e.ID, e.Title, e.Artifact)
			}
		case o.run == "all":
			if o.resultOut != "" {
				var ids []string
				for _, e := range microdata.Experiments(opts) {
					ids = append(ids, e.ID)
				}
				runErr = captureResults(ctx, rb, opts, ids, o.resultOut)
			} else {
				runErr = microdata.RunAllExperimentsContext(ctx, os.Stdout, opts)
			}
		default:
			if !experimentExists(o.run, opts) {
				runErr = perf.Invalidf("unknown experiment %q (see -list)", o.run)
				return
			}
			if o.resultOut != "" {
				runErr = captureResults(ctx, rb, opts, []string{o.run}, o.resultOut)
			} else {
				runErr = microdata.RunExperimentContext(ctx, os.Stdout, o.run, opts)
			}
		}
	}()

	if col != nil && o.traceOut != "" {
		if err := perf.WriteOut(o.traceOut, col.Tracer.WriteChromeTrace); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if col != nil && o.metricsOut != "" {
		snap := col.Metrics.Snapshot()
		if err := perf.WriteOut(o.metricsOut, snap.WriteJSON); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if o.reportOut != "" {
		rep := rb.Finish(col)
		if err := perf.WriteOut(o.reportOut, rep.WriteJSON); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return runErr
}

func experimentExists(id string, opts microdata.ExperimentOptions) bool {
	for _, e := range microdata.Experiments(opts) {
		if e.ID == id {
			return true
		}
	}
	return false
}

func mode(o options) string {
	switch {
	case o.engStat:
		return "enginestats"
	case o.list:
		return "list"
	default:
		return "run:" + o.run
	}
}

// engineStats runs every registered algorithm once on a synthetic census
// draw and prints the shared evaluation engine's counters from
// Result.Stats: nodes evaluated, cache hits/misses, rows scanned, and the
// precompute/evaluation wall time. Algorithms that never touch the lattice
// (the local-recoding ones) report no engine_* counters and are marked so.
// With the telemetry collector installed it also prints a per-phase
// wall-clock breakdown (precompute/search/materialize) derived from the
// recorded spans.
func engineStats(ctx context.Context, w io.Writer, n, k int, seed int64, col *microdata.TelemetryCollector) error {
	tab, err := microdata.Generate(microdata.GeneratorConfig{N: n, Seed: seed})
	if err != nil {
		return err
	}
	cfg := microdata.AlgorithmConfig{
		K:              k,
		Hierarchies:    microdata.CensusHierarchies(),
		Taxonomies:     microdata.CensusTaxonomies(),
		MaxSuppression: 0.05,
		Metric:         microdata.MetricLM,
		Seed:           seed,
	}
	fmt.Fprintf(w, "evaluation-engine counters (census N=%d, k=%d, seed=%d)\n", n, k, seed)
	fmt.Fprintf(w, "%-20s %10s %10s %10s %12s %8s %8s\n",
		"algorithm", "evaluated", "hits", "misses", "rows", "pre-ms", "eval-ms")
	for _, name := range microdata.AlgorithmNames() {
		alg, err := microdata.NewAlgorithm(name)
		if err != nil {
			return err
		}
		r, err := microdata.AnonymizeContext(ctx, alg, tab, cfg)
		if err != nil {
			return err
		}
		if _, ok := r.Stats["engine_nodes_evaluated"]; !ok {
			fmt.Fprintf(w, "%-20s %s\n", name, "(local recoding: no engine)")
			continue
		}
		fmt.Fprintf(w, "%-20s %10.0f %10.0f %10.0f %12.0f %8.1f %8.1f\n", name,
			r.Stats["engine_nodes_evaluated"], r.Stats["engine_cache_hits"],
			r.Stats["engine_cache_misses"], r.Stats["engine_rows_scanned"],
			r.Stats["engine_precompute_ms"], r.Stats["engine_eval_ms"])
	}
	if col != nil {
		writePhaseBreakdown(w, col)
	}
	return nil
}

// writePhaseBreakdown prints the wall-clock split of each algorithm's run:
// engine precompute, the search proper, and result materialization, all
// read off the span tree (search = root span minus instrumented subtrees).
func writePhaseBreakdown(w io.Writer, col *microdata.TelemetryCollector) {
	spans := col.Tracer.Finished()
	type row struct {
		name                             string
		total, precompute, search, mater time.Duration
	}
	var rows []row
	for _, sp := range spans {
		name, ok := strings.CutSuffix(sp.Name, ".search")
		if !ok {
			continue
		}
		sub := microdata.SpanSubtreeDurations(spans, sp)
		r := row{
			name:       name,
			total:      sp.Duration(),
			precompute: sub["engine.precompute"],
			mater:      sub["algorithm.materialize"],
		}
		r.search = r.total - r.precompute - r.mater
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(w, "\nper-phase wall clock from telemetry spans\n")
	fmt.Fprintf(w, "%-20s %10s %12s %10s %12s\n",
		"algorithm", "total-ms", "precomp-ms", "search-ms", "material-ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %10.1f %12.1f %10.1f %12.1f\n", r.name,
			ms(r.total), ms(r.precompute), ms(r.search), ms(r.mater))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func parseKs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("invalid k %q", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty k sweep")
	}
	return out, nil
}
