package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"microdata"
	"microdata/internal/telemetry/perf"
)

// TestMain lets the test binary stand in for the anonbench command: with
// ANONBENCH_MAIN=1 it runs main on its arguments, so the tests can check
// the exit codes the command reports.
func TestMain(m *testing.M) {
	if os.Getenv("ANONBENCH_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitCode runs the command with args and returns its exit status.
func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ANONBENCH_MAIN=1")
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestExitCodes pins the command to the shared exit-code contract: a
// census size or k sweep the run cannot honour, an unknown experiment and
// a removed flag exit 6 before any mode runs.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"n zero", []string{"-run", "E1", "-n", "0"}, perf.ExitInvalid},
		{"n negative", []string{"-run", "E1", "-n", "-5"}, perf.ExitInvalid},
		{"k not a number", []string{"-run", "E1", "-ks", "x"}, perf.ExitInvalid},
		{"k above n", []string{"-run", "E14", "-ks", "10", "-n", "5"}, perf.ExitInvalid},
		{"k above n enginestats", []string{"-enginestats", "-ks", "10", "-n", "5"}, perf.ExitInvalid},
		{"unknown experiment", []string{"-run", "E99"}, perf.ExitInvalid},
		{"bad log format", []string{"-run", "E1", "-log-format", "xml"}, perf.ExitInvalid},
		{"removed progress flag", []string{"-run", "E1", "-progress"}, perf.ExitInvalid},
		{"removed debug-addr flag", []string{"-run", "E1", "-debug-addr", ":0"}, perf.ExitInvalid},
		{"removed debug-hold flag", []string{"-run", "E1", "-debug-hold"}, perf.ExitInvalid},
		{"removed bench-suite flag", []string{"-bench-suite", "all"}, perf.ExitInvalid},
		{"removed bench-out flag", []string{"-run", "E1", "-bench-out", "x"}, perf.ExitInvalid},
		{"removed bench-reps flag", []string{"-run", "E1", "-bench-reps", "1"}, perf.ExitInvalid},
		{"ok", []string{"-run", "E1"}, perf.ExitOK},
	}
	for _, c := range cases {
		if got := exitCode(t, c.args...); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseKs(t *testing.T) {
	ks, err := parseKs("2,5,10")
	if err != nil || len(ks) != 3 || ks[0] != 2 || ks[2] != 10 {
		t.Fatalf("parseKs = %v, %v", ks, err)
	}
	ks, err = parseKs(" 3 , 7 ,")
	if err != nil || len(ks) != 2 || ks[1] != 7 {
		t.Fatalf("parseKs with spaces = %v, %v", ks, err)
	}
	for _, bad := range []string{"", ",", "a", "0", "-3", "2,x"} {
		if _, err := parseKs(bad); err == nil {
			t.Errorf("parseKs(%q) should fail", bad)
		}
	}
}

// TestEngineStatsOutputByteCompatible pins the -enginestats counters table
// format: the header lines are byte-identical to the pre-telemetry output
// and every algorithm row matches the original column layout. The
// telemetry-derived phase table only APPENDS after the counters table.
func TestEngineStatsOutputByteCompatible(t *testing.T) {
	var plain strings.Builder
	if err := engineStats(context.Background(), &plain, 200, 3, 1, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(plain.String(), "\n"), "\n")
	if lines[0] != "evaluation-engine counters (census N=200, k=3, seed=1)" {
		t.Errorf("title line = %q", lines[0])
	}
	wantHeader := "algorithm             evaluated       hits     misses         rows   pre-ms  eval-ms"
	if lines[1] != wantHeader {
		t.Errorf("header = %q\n  want   %q", lines[1], wantHeader)
	}
	names := microdata.AlgorithmNames()
	if got := len(lines) - 2; got != len(names) {
		t.Fatalf("counters table has %d rows, want %d", got, len(names))
	}
	engineRow := regexp.MustCompile(`^\S[^ ]* + *\d+ +\d+ +\d+ +\d+ + *\d+\.\d +\d+\.\d$`)
	localRow := regexp.MustCompile(`^\S[^ ]* +\(local recoding: no engine\)$`)
	for i, line := range lines[2:] {
		if !strings.HasPrefix(line, names[i]) {
			t.Errorf("row %d = %q, want algorithm %q first", i, line, names[i])
		}
		if !engineRow.MatchString(line) && !localRow.MatchString(line) {
			t.Errorf("row does not match pre-telemetry layout: %q", line)
		}
	}

	// With a collector installed the counters table keeps the same shape
	// and the per-phase span breakdown is appended after it.
	col := microdata.NewTelemetryCollector()
	prev := microdata.SetTelemetryCollector(col)
	defer microdata.SetTelemetryCollector(prev)
	var traced strings.Builder
	if err := engineStats(context.Background(), &traced, 200, 3, 1, col); err != nil {
		t.Fatal(err)
	}
	got := traced.String()
	if !strings.HasPrefix(got, lines[0]+"\n"+lines[1]+"\n") {
		t.Error("collector run changed the counters table header")
	}
	idx := strings.Index(got, "\nper-phase wall clock from telemetry spans\n")
	if idx < 0 {
		t.Fatal("phase breakdown missing from collector run")
	}
	table := strings.Split(strings.TrimRight(got[:idx], "\n"), "\n")
	if len(table) != len(lines) {
		t.Errorf("counters table grew from %d to %d lines with collector installed", len(lines), len(table))
	}
	phaseHeader := "algorithm              total-ms   precomp-ms  search-ms  material-ms"
	if !strings.Contains(got[idx:], phaseHeader) {
		t.Errorf("phase table header missing; got tail %q", got[idx:])
	}
	phaseRows := strings.Count(strings.TrimRight(got[idx:], "\n"), "\n") - 2
	if phaseRows != len(names) {
		t.Errorf("phase table has %d rows, want one per algorithm (%d)", phaseRows, len(names))
	}
}

// TestResultOutSealsPackAndLinksReport drives realMain with -run E1
// -result-out -report and checks that (a) the sealed pack verifies, (b)
// the v3 run report links the pack's manifest digest, and (c) the table
// digest in the pack matches what a plain run prints.
func TestResultOutSealsPackAndLinksReport(t *testing.T) {
	dir := t.TempDir()
	packPath := filepath.Join(dir, "pack.json")
	reportPath := filepath.Join(dir, "report.json")
	err := realMain(options{
		run: "E1", n: 150, ks: "2,5", seed: 1,
		resultOut: packPath, reportOut: reportPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := microdata.ReadResultPack(packPath)
	if err != nil {
		t.Fatalf("sealed pack fails verification: %v", err)
	}
	if p.Source != microdata.ResultPackSourceCensus || p.Env.N != 150 || p.Env.Seed != 1 {
		t.Errorf("pack env = %+v", p.Env)
	}
	if len(p.Tables) != 1 || p.Tables[0].ID != "E1" {
		t.Errorf("tables = %+v", p.Tables)
	}
	if len(p.Algorithms) == 0 || len(p.Attack) == 0 {
		t.Errorf("capture sections missing: %d algorithms, %d attack", len(p.Algorithms), len(p.Attack))
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if doc["version"] != float64(3) {
		t.Errorf("run-report version = %v, want 3", doc["version"])
	}
	if _, ok := doc["progress"]; ok {
		t.Error("run report still carries a progress key")
	}
	link, ok := doc["result_pack"].(map[string]any)
	if !ok {
		t.Fatalf("report missing result_pack link:\n%s", raw)
	}
	if link["path"] != packPath || link["sha256"] != p.Manifest.Digest {
		t.Errorf("result_pack link = %v, want path=%s sha256=%s", link, packPath, p.Manifest.Digest)
	}

	// -result-out outside an experiment run is an invalid combination.
	err = realMain(options{list: true, run: "all", n: 150, ks: "2", seed: 1, resultOut: packPath})
	if perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("-list -result-out: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
}
