package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"microdata/internal/telemetry/perf"
)

// TestMain lets the test binary stand in for the benchdiff command: with
// BENCHDIFF_MAIN=1 it runs main on its arguments, so the tests can check
// the exit codes flag parsing reports.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHDIFF_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command with args and returns its exit status and
// standard output.
func runCmd(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHDIFF_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), stdout.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String()
}

// writePack seals a pack shaped like one `benchmark/ --pack` run: one
// workload entry holding the four end-to-end series plus a per-layer one,
// with the given job_s samples, and writes it under dir.
func writePack(t *testing.T, dir, name string, job []float64) string {
	t.Helper()
	p := &perf.Pack{
		Schema: perf.Schema, Version: perf.Version, Suite: "benchmark", Reps: len(job),
		Env: perf.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2, Seed: 1, N: 1000, K: 5},
		Benchmarks: []perf.Benchmark{{
			Name: "paper-replay",
			Metrics: map[string]perf.Series{
				"job_s":               perf.NewSeries("s", job),
				"cpu_s":               perf.NewSeries("s", []float64{0.9, 0.91, 0.89}),
				"peak_rss_mb":         perf.NewSeries("MB", []float64{60, 61, 59}),
				"setup_s":             perf.NewSeries("s", []float64{0.0042, 0.0043, 0.0041}),
				"experiment.replay_s": perf.NewSeries("s", job),
			},
		}},
	}
	path := filepath.Join(dir, name)
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(args ...string) error {
	return realMain(args, 0.25, false, false, false)
}

func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	base := writePack(t, dir, "base.json", []float64{0.6, 0.612, 0.588})
	same := writePack(t, dir, "same.json", []float64{0.606, 0.594, 0.6})
	worse := writePack(t, dir, "worse.json", []float64{1.2, 1.23, 1.188})

	if err := run(base, same); perf.ExitCode(err) != perf.ExitOK {
		t.Errorf("equal packs: exit %d (%v), want 0", perf.ExitCode(err), err)
	}
	if err := run(base, worse); perf.ExitCode(err) != perf.ExitDrift {
		t.Errorf("doubled job_s: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitDrift)
	}
	if err := run(base); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("one arg: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
	if err := run(base, filepath.Join(dir, "missing.json")); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("missing file: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}

	notAPack := filepath.Join(dir, "other.json")
	if err := os.WriteFile(notAPack, []byte(`{"schema":"something-else","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(base, notAPack); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("wrong schema: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
}

// TestFlagExitCodes runs the command itself, so flag parsing is covered:
// an unknown or malformed flag, and the removed -baseline-ledger, -gate,
// -mad-factor and -skip-verify, exit 6 (invalid input), not 2 (tampered
// pack).
func TestFlagExitCodes(t *testing.T) {
	dir := t.TempDir()
	pack := writePack(t, dir, "pack.json", []float64{0.6, 0.612, 0.588})
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-nosuch", pack, pack}, perf.ExitInvalid},
		{"rel-threshold not a number", []string{"-rel-threshold", "x", pack, pack}, perf.ExitInvalid},
		{"removed baseline-ledger flag", []string{"-baseline-ledger", dir, pack}, perf.ExitInvalid},
		{"removed gate flag", []string{"-gate", "wall_ns", pack, pack}, perf.ExitInvalid},
		{"removed mad-factor flag", []string{"-mad-factor", "2", pack, pack}, perf.ExitInvalid},
		{"removed skip-verify flag", []string{"-skip-verify", pack, pack}, perf.ExitInvalid},
		{"ok", []string{"-rel-threshold", "0.5", pack, pack}, perf.ExitOK},
	}
	for _, c := range cases {
		if got, _ := runCmd(t, c.args...); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

// TestGatesBenchmarkPacks: on two packs shaped like `benchmark/ --pack`
// output, a tripled paper-replay job_s fails the gate with exit 5 and the
// table names job_s as drifted, while a pack compared with itself passes.
func TestGatesBenchmarkPacks(t *testing.T) {
	dir := t.TempDir()
	base := writePack(t, dir, "base.json", []float64{0.6, 0.612, 0.588, 0.605, 0.597})
	slow := writePack(t, dir, "slow.json", []float64{1.8, 1.836, 1.764, 1.815, 1.791})

	code, out := runCmd(t, base, slow)
	if code != perf.ExitDrift {
		t.Errorf("tripled job_s: exit %d, want %d\n%s", code, perf.ExitDrift, out)
	}
	if !regexp.MustCompile(`(?m)^paper-replay +job_s .* 3\.00x +drifted$`).MatchString(out) {
		t.Errorf("drift table does not name job_s as drifted:\n%s", out)
	}
	if code, out := runCmd(t, base, base); code != perf.ExitOK {
		t.Errorf("self-compare: exit %d, want 0\n%s", code, out)
	}
}

// TestGatedMatchesBenchmarkEndToEnd keeps the gated set and the
// benchmark's declared end-to-end metrics from drifting apart.
func TestGatedMatchesBenchmarkEndToEnd(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range doc.EndToEnd {
		want = append(want, m.Name)
	}
	got := slices.Clone(perf.Gated)
	slices.Sort(want)
	slices.Sort(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("gated metrics %v, BENCHMARK.json end_to_end %v", got, want)
	}
}

func TestTamperedPackFailsVerification(t *testing.T) {
	dir := t.TempDir()
	base := writePack(t, dir, "base.json", []float64{0.6, 0.612, 0.588})
	cur := writePack(t, dir, "cur.json", []float64{0.606, 0.594, 0.6})

	// Hand-edit one timing digit after sealing.
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte("0.594"), []byte("0.595"), 1)
	if bytes.Equal(edited, raw) {
		t.Fatalf("tamper target not found in %s", raw)
	}
	if err := os.WriteFile(cur, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(base, cur); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("tampered pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
	if err := realMain([]string{cur}, 0.25, true, false, false); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("-verify-only on tampered pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}

	// A byte appended after the sealed document is an edit too.
	raw, err = os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	appended := filepath.Join(dir, "appended.json")
	if err := os.WriteFile(appended, append(raw, 'x'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := realMain([]string{appended}, 0.25, true, false, false); perf.ExitCode(err) != perf.ExitVerification {
		t.Errorf("-verify-only on appended byte: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}

	// One verifier serves both pack kinds: the committed result pack
	// verifies as it stands.
	if err := realMain([]string{"../../results/census-1k.json"}, 0.25, true, false, false); err != nil {
		t.Errorf("-verify-only on the golden result pack: %v", err)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	base := writePack(t, dir, "base.json", []float64{0.6, 0.612, 0.588})
	cur := writePack(t, dir, "cur.json", []float64{0.606, 0.594, 0.6})

	b, err := perf.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := perf.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	d, err := perf.Compare(b, c, perf.CompareOptions{RelThreshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var out1, out2 bytes.Buffer
	if err := writeDiffJSON(&out1, d); err != nil {
		t.Fatal(err)
	}
	if err := writeDiffJSON(&out2, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("canonical JSON output is not byte-stable")
	}
	var doc map[string]any
	if err := json.Unmarshal(out1.Bytes(), &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out1.String())
	}
	if doc["drifted"] != float64(0) {
		t.Errorf("drifted = %v, want 0", doc["drifted"])
	}
	rows, ok := doc["rows"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("rows missing from -json output: %s", out1.String())
	}
	row := rows[0].(map[string]any)
	if row["benchmark"] != "paper-replay" || row["metric"] != "cpu_s" {
		t.Errorf("row = %v", row)
	}

	// Real packs carry NaN ratios (zero baseline medians) and NaN MADs
	// (single-rep packs), which encoding/json rejects as raw floats — the
	// writer must emit the pinned string spellings instead of failing.
	d.Rows[0].Ratio = perf.Float(math.NaN())
	d.Rows[0].BaseMAD = perf.Float(math.Inf(1))
	var nanOut bytes.Buffer
	if err := writeDiffJSON(&nanOut, d); err != nil {
		t.Fatalf("writeDiffJSON with NaN ratio: %v", err)
	}
	if err := json.Unmarshal(nanOut.Bytes(), &doc); err != nil {
		t.Fatalf("NaN output is not JSON: %v\n%s", err, nanOut.String())
	}
	row = doc["rows"].([]any)[0].(map[string]any)
	if row["ratio"] != "NaN" || row["base_mad"] != "+Inf" {
		t.Errorf("non-finite spellings: ratio=%v base_mad=%v", row["ratio"], row["base_mad"])
	}
}
