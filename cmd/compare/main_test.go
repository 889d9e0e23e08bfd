package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"microdata"
	"microdata/internal/dataset"
)

// TestMain lets the test binary stand in for the compare command: with
// COMPARE_MAIN=1 it runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("COMPARE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPackOnStdoutVerifies pins that -result-out - owns stdout: the
// comparison report goes to stderr, and stdout alone is a sealed pack that
// -verify replays cleanly.
func TestPackOnStdoutVerifies(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-paper", "-result-out", "-")
	cmd.Env = append(os.Environ(), "COMPARE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		t.Fatalf("exit %d: %s", ee.ExitCode(), stderr.String())
	} else if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "T_3a vs T_3b") {
		t.Errorf("report missing from stderr:\n%s", stderr.String())
	}
	path := filepath.Join(t.TempDir(), "paper.json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verify(io.Discard, os.Stderr, path, 0); err != nil {
		t.Errorf("stdout does not verify: %v", err)
	}
}

func TestRunPaperMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", "", "", true, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"T_3a vs T_3b",
		"k(T_3a)=3 k(T_3b)=3",
		"right strongly dominates",
		"T_3b vs T_4",
		"incomparable",
		"WTD",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFileMode(t *testing.T) {
	dir := t.TempDir()
	orig, err := microdata.Generate(microdata.GeneratorConfig{N: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, tab *microdata.Table) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := dataset.WriteCSV(f, tab); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cfg := microdata.AlgorithmConfig{
		K: 4, Hierarchies: microdata.CensusHierarchies(),
		Taxonomies: microdata.CensusTaxonomies(), MaxSuppression: 0.05,
	}
	anonA, err := mustAlg(t, "mondrian").Anonymize(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anonB, err := mustAlg(t, "datafly").Anonymize(orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	origPath := write("orig.csv", orig)
	aPath := write("a.csv", anonA.Table)
	bPath := write("b.csv", anonB.Table)

	var buf bytes.Buffer
	if err := run(&buf, origPath, aPath, bPath, false, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dominance", "privacy cov", "utility cov", "WTD"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func mustAlg(t *testing.T, name string) microdata.Algorithm {
	t.Helper()
	alg, err := microdata.NewAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "", "", "", false, ""); err == nil {
		t.Error("missing paths should fail")
	}
	if err := run(&buf, "/nonexistent", "/nonexistent", "/nonexistent", false, ""); err == nil {
		t.Error("unreadable files should fail")
	}
}

func TestSide(t *testing.T) {
	if side(microdata.LeftBetter, "a", "b") != "a" ||
		side(microdata.RightBetter, "a", "b") != "b" ||
		side(microdata.Tie, "a", "b") != "tie" {
		t.Error("side mapping wrong")
	}
}
