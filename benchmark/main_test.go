package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/generator"
	"microdata/internal/measure"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// tinySizes shrinks every workload so that a job takes milliseconds.
var tinySizes = sizes{lattice: 2000, release: 3000, assess: 800, pack: "../results/census-1k.json"}

func TestWorkloadJobsPassTheirChecks(t *testing.T) {
	for _, w := range workloads(tinySizes) {
		if w.name == "paper-replay" {
			continue // a job takes seconds; CI replays the golden pack already
		}
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(context.Background(), 7)
			if err != nil {
				t.Fatal(err)
			}
			r := &runner{inst: inst, stderr: os.Stderr}
			for i := 0; i < 2; i++ {
				if rec := r.job(context.Background()); !rec.ok {
					t.Fatalf("job %d failed", i)
				}
			}
		})
	}
}

func TestRunnerRejectsAJobThatChangesItsOutputs(t *testing.T) {
	digests := []string{"a", "a", "b"}
	jobs := 0
	inst := &instance{job: func(context.Context) (outcome, error) {
		d := digests[jobs]
		jobs++
		return outcome{verify: func() (string, error) { return d, nil }}, nil
	}}
	r := &runner{inst: inst, stderr: &bytes.Buffer{}}
	var ok []bool
	for range digests {
		ok = append(ok, r.job(context.Background()).ok)
	}
	if !ok[0] || !ok[1] || ok[2] || r.failed != 1 || r.attempted != 3 {
		t.Fatalf("ok %v, failed %d of %d; want only the third job to fail", ok, r.failed, r.attempted)
	}
}

func TestCheckReleaseRejectsBrokenReleases(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := censusConfig(5, 3)
	r, err := datafly.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRelease(tab, r, cfg); err != nil {
		t.Fatalf("a sound release fails its check: %v", err)
	}
	ungeneralized := *r
	ungeneralized.Table = tab
	if checkRelease(tab, &ungeneralized, cfg) == nil {
		t.Error("the ungeneralized input passes as a 5-anonymous release")
	}
	overBudget := *r
	overBudget.Suppressed = make([]int, cfg.Budget(tab.Len())+1)
	if checkRelease(tab, &overBudget, cfg) == nil {
		t.Error("a release suppressing more than the budget passes")
	}
	shorter, err := generator.Generate(generator.Config{N: 999, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if checkRelease(shorter, r, cfg) == nil {
		t.Error("a release with more rows than its input passes")
	}
}

func TestCheckSearchesRejectsACheaperSearchThanOptimal(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := censusConfig(5, 4)
	best, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The lattice's top node is admissible and costs more than optimal's.
	top, err := algorithm.FinishGlobal("top", tab, cfg, []int{5, 5, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSearches(tab, cfg, []*algorithm.Result{best, top}); err != nil {
		t.Fatalf("optimal first: %v", err)
	}
	if _, err := checkSearches(tab, cfg, []*algorithm.Result{top, best}); err == nil {
		t.Error("a first search that costs more than a later one passes")
	}
}

func TestCheckAssessmentsRejectsRiskAboveOneOverK(t *testing.T) {
	a := assessment{
		properties: nil,
		summary:    &measure.Summary{KAnonymity: 5},
		prosecutor: []float64{0.2, 0.1},
	}
	if _, err := checkAssessments([]assessment{a}, nil); err != nil {
		t.Fatalf("risk 1/k passes no more: %v", err)
	}
	a.prosecutor = []float64{0.2, 0.5}
	if _, err := checkAssessments([]assessment{a}, nil); err == nil {
		t.Error("prosecutor risk 0.5 passes at k=5")
	}
}

func TestCheckReplayRejectsAOneFieldDivergence(t *testing.T) {
	recorded, err := resultpack.ReadFile(tinySizes.pack)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(resultpack.Diff(recorded, recorded, resultpack.DiffOptions{ULPs: replayULPs})); err != nil {
		t.Fatalf("a pack diverges from itself: %v", err)
	}
	edited, err := resultpack.ReadFile(tinySizes.pack)
	if err != nil {
		t.Fatal(err)
	}
	edited.Algorithms[0].Classes++
	if checkReplay(resultpack.Diff(recorded, edited, resultpack.DiffOptions{ULPs: replayULPs})) == nil {
		t.Error("a replay with one class count off passes")
	}
}

// TestMetricsMatchBENCHMARK pins the printed metric names and units to the
// ones BENCHMARK.json declares, in order.
func TestMetricsMatchBENCHMARK(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark prints %s %s",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	ws := workloads(defaultSizes)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestRunPrintsEveryMetric drives the command at tiny sizes, untraced and
// traced, and checks its output lines, its JSON line and its sealed pack.
func TestRunPrintsEveryMetric(t *testing.T) {
	for _, tc := range []struct {
		trace   string
		catalog []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		dir := t.TempDir()
		pack := filepath.Join(dir, "pack.json")
		chrome := filepath.Join(dir, "trace.json")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "assess-10k", "-seconds", "1", "-trace", tc.trace,
			"-pack", pack, "-chrome-trace", chrome}, tinySizes, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		var lines []string
		for sc := bufio.NewScanner(&stdout); sc.Scan(); {
			if !strings.HasPrefix(sc.Text(), "#") {
				lines = append(lines, sc.Text())
			}
		}
		if len(lines) != len(tc.catalog)+1 {
			t.Fatalf("trace %s: %d lines, want one per metric and the JSON line", tc.trace, len(lines))
		}
		var summary struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatal(err)
		}
		if !summary.Correct || summary.Failed != 0 || summary.Attempted < 2 || len(summary.Metrics) != len(tc.catalog) {
			t.Errorf("trace %s: summary %+v", tc.trace, summary)
		}
		for i, m := range tc.catalog {
			f := strings.Fields(lines[i])
			if len(f) != 4 || f[0] != "assess-10k" || f[1] != m.name || f[3] != m.unit {
				t.Errorf("trace %s: line %q, want assess-10k %s <value> %s", tc.trace, lines[i], m.name, m.unit)
			}
			if got := summary.Metrics[m.name]; got.Unit != m.unit {
				t.Errorf("trace %s: JSON %s has unit %q, want %q", tc.trace, m.name, got.Unit, m.unit)
			}
		}
		p, err := perf.ReadFile(pack)
		if err != nil {
			t.Fatalf("trace %s: sealed pack does not verify: %v", tc.trace, err)
		}
		if len(p.Benchmarks) != 1 || len(p.Benchmarks[0].Metrics) != len(tc.catalog) {
			t.Errorf("trace %s: pack holds %d benchmarks", tc.trace, len(p.Benchmarks))
		}
		_, err = os.Stat(chrome)
		if traced := tc.trace == "1"; traced != (err == nil) {
			t.Errorf("trace %s: Chrome trace written: %v", tc.trace, err == nil)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "assess-10k", "-trace", "2"},
		{"-workload", "assess-10k", "-seconds", "0"},
		{"-no-such-flag"},
	} {
		if code := run(args, tinySizes, &bytes.Buffer{}, &bytes.Buffer{}); code != perf.ExitInvalid {
			t.Errorf("%v: exit %d, want %d", args, code, perf.ExitInvalid)
		}
	}
}
