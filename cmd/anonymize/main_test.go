package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"microdata"
	"microdata/internal/telemetry/perf"
)

// TestMain lets the test binary stand in for the anonymize command: with
// ANONYMIZE_MAIN=1 it runs main on its arguments, so the tests can check
// the exit codes the command reports.
func TestMain(m *testing.M) {
	if os.Getenv("ANONYMIZE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitCode runs the command with args and returns its exit status.
func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ANONYMIZE_MAIN=1")
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

// TestExitCodes pins the command to the shared exit-code contract: input
// the user got wrong (a ragged CSV, bad flags, an unknown algorithm) exits
// 6, never 2, which means a tampered artifact.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	ragged := filepath.Join(dir, "ragged.csv")
	csv := "Age,ZipCode,Education,MaritalStatus,Disease\n34,13053,Bachelors,Married,Flu\n41,13068\n"
	if err := os.WriteFile(ragged, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	// Cells outside the census hierarchies' ground domain: non-finite
	// ages, an unknown category, and already generalized values.
	domain := func(name, row string) []string {
		path := filepath.Join(dir, name+".csv")
		csv := "Age,ZipCode,Education,MaritalStatus,Disease\n34,13053,Bachelors,Divorced,Flu\n" + row + "\n"
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
		return []string{"-in", path, "-alg", "datafly", "-k", "1", "-out", filepath.Join(dir, "anon.csv")}
	}
	out := filepath.Join(dir, "anon.csv")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"k zero", []string{"-gen", "50", "-k", "0", "-out", out}, perf.ExitInvalid},
		{"k above N", []string{"-gen", "50", "-k", "51", "-out", out}, perf.ExitInvalid},
		{"sup above 1", []string{"-gen", "50", "-sup", "2", "-out", out}, perf.ExitInvalid},
		{"sup NaN", []string{"-gen", "50", "-sup", "NaN", "-out", out}, perf.ExitInvalid},
		{"NaN age", domain("nan", "NaN,13053,Bachelors,Divorced,Flu"), perf.ExitInvalid},
		{"Inf age", domain("inf", "Inf,13053,Bachelors,Divorced,Flu"), perf.ExitInvalid},
		{"unknown category", domain("nope", "34,13053,Nope,Divorced,Flu"), perf.ExitInvalid},
		{"interval age", domain("interval", `"(20,30]",13053,Bachelors,Divorced,Flu`), perf.ExitInvalid},
		{"prefix zip", domain("prefix", "34,1305*,Bachelors,Divorced,Flu"), perf.ExitInvalid},
		{"star cell", domain("star", "34,13053,*,Divorced,Flu"), perf.ExitInvalid},
		{"in-domain csv", domain("good", "41,13068,Masters,Divorced,Flu"), perf.ExitOK},
		{"ragged csv", []string{"-in", ragged, "-out", out}, perf.ExitInvalid},
		{"missing file", []string{"-in", filepath.Join(dir, "none.csv"), "-out", out}, perf.ExitInvalid},
		{"unknown algorithm", []string{"-gen", "50", "-alg", "nope", "-out", out}, perf.ExitInvalid},
		{"gen with in", []string{"-gen", "50", "-in", ragged, "-out", out}, perf.ExitInvalid},
		{"bad log format", []string{"-gen", "50", "-log-format", "xml", "-out", out}, perf.ExitInvalid},
		{"removed workers flag", []string{"-gen", "50", "-workers", "2", "-out", out}, perf.ExitInvalid},
		{"ok", []string{"-gen", "50", "-k", "3", "-out", out}, perf.ExitOK},
	}
	for _, c := range cases {
		if got := exitCode(t, c.args...); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRunGenerateToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "anon.csv")
	if err := run("", 150, out, "mondrian", 5, 0.05, 1, true); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tab, err := microdata.ReadCSV(f, microdata.CensusSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 150 {
		t.Fatalf("output has %d rows, want 150", tab.Len())
	}
	p, err := microdata.PartitionTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if microdata.KAnonymity(p) < 5 {
		t.Errorf("output k = %d, want >= 5", microdata.KAnonymity(p))
	}
}

func TestRunFileToFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "census.csv")
	orig, err := microdata.Generate(microdata.GeneratorConfig{N: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := microdata.WriteCSV(f, orig); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(dir, "anon.csv")
	if err := run(in, 0, out, "datafly", 3, 0.05, 1, false); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tab, err := microdata.ReadCSV(g, microdata.CensusSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 100 {
		t.Fatalf("output has %d rows", tab.Len())
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"no input", func() error { return run("", 0, "", "mondrian", 5, 0.05, 1, false) }},
		{"both inputs", func() error { return run("x.csv", 10, "", "mondrian", 5, 0.05, 1, false) }},
		{"missing file", func() error { return run("/nonexistent.csv", 0, "", "mondrian", 5, 0.05, 1, false) }},
		{"bad algorithm", func() error { return run("", 50, "", "nope", 5, 0.05, 1, false) }},
		{"impossible k", func() error { return run("", 50, "", "mondrian", 500, 0.05, 1, false) }},
		{"unwritable out", func() error { return run("", 50, "/nonexistent-dir/x.csv", "mondrian", 5, 0.05, 1, false) }},
	}
	for _, c := range cases {
		if err := c.err(); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if c.name == "bad algorithm" && !strings.Contains(err.Error(), "unknown algorithm") {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
	}
}
