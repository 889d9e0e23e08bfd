package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microdata"
	"microdata/internal/telemetry/perf"
)

// writeFilesPack runs a files-mode comparison over generated CSVs and
// seals the verdicts, returning the pack path and the input dir.
func writeFilesPack(t *testing.T) (string, string) {
	t.Helper()
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
		if err := microdata.WriteCSV(f, tab); err != nil {
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

	packPath := filepath.Join(dir, "pack.json")
	if err := run(io.Discard, origPath, aPath, bPath, false, packPath); err != nil {
		t.Fatal(err)
	}
	return packPath, dir
}

// TestVerifyExitContract pins the acceptance criteria end to end: a clean
// pack verifies (exit 0), flipping any byte of the sealed document fails
// the manifest (exit 2), and perturbing a recorded measure produces a
// divergence (exit 5) whose diagnostic names the field path.
func TestVerifyExitContract(t *testing.T) {
	packPath, _ := writeFilesPack(t)

	// Exit 0: untouched pack replays cleanly.
	var out bytes.Buffer
	if err := verify(&out, io.Discard, packPath, 0); err != nil {
		t.Fatalf("clean pack: %v", err)
	}
	if !strings.Contains(out.String(), "verified: "+packPath) {
		t.Errorf("verify output = %q", out.String())
	}

	raw, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}

	// Exit 2: any flipped byte fails manifest verification before replay.
	tampered := bytes.Replace(raw, []byte(`"wtd":`), []byte(`"wtD":`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found")
	}
	tamperPath := packPath + ".tampered"
	if err := os.WriteFile(tamperPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	err = verify(io.Discard, io.Discard, tamperPath, 0)
	if perf.ExitCode(err) != perf.ExitVerification {
		t.Fatalf("tampered pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}

	// Exit 5: a perturbed recorded measure survives resealing but diverges
	// on replay, and the diagnostic names the field.
	p, err := microdata.ReadResultPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	recorded := p.Comparisons[0].WTD
	p.Comparisons[0].WTD = "right"
	if p.Comparisons[0].WTD == recorded {
		p.Comparisons[0].WTD = "left"
	}
	p.Manifest = nil
	perturbedPath := packPath + ".perturbed"
	if err := microdata.WriteResultPack(p, perturbedPath); err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	err = verify(io.Discard, &diag, perturbedPath, 0)
	if perf.ExitCode(err) != perf.ExitDrift {
		t.Fatalf("perturbed pack: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitDrift)
	}
	want := "comparisons[" + p.Comparisons[0].Left + " vs " + p.Comparisons[0].Right + "].wtd"
	if !strings.Contains(diag.String(), want) {
		t.Errorf("diagnostic missing path %q:\n%s", want, diag.String())
	}
	if !strings.Contains(diag.String(), `recorded "`+p.Comparisons[0].WTD+`"`) {
		t.Errorf("diagnostic missing recorded value:\n%s", diag.String())
	}

	// Exit 6: documents this binary cannot replay.
	if err := verify(io.Discard, io.Discard, filepath.Join(t.TempDir(), "missing.json"), 0); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("missing pack: %v", err)
	}
	notPack := filepath.Join(t.TempDir(), "not.json")
	if err := os.WriteFile(notPack, []byte(`{"schema":"microdata/perf-pack","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verify(io.Discard, io.Discard, notPack, 0); perf.ExitCode(err) != perf.ExitInvalid {
		t.Errorf("non-result-pack document: %v", err)
	}
}

// TestVerifyDetectsEditedInput pins the files-source tamper path: editing
// a fingerprinted input CSV after sealing is a verification failure (2),
// not a divergence.
func TestVerifyDetectsEditedInput(t *testing.T) {
	packPath, dir := writeFilesPack(t)
	bPath := filepath.Join(dir, "b.csv")
	raw, err := os.ReadFile(bPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	err = verify(io.Discard, io.Discard, packPath, 0)
	if perf.ExitCode(err) != perf.ExitVerification {
		t.Fatalf("edited input: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
	if !strings.Contains(err.Error(), "b.csv") {
		t.Errorf("error should name the edited file: %v", err)
	}
}

// TestVerifyPaperPack round-trips the paper-source pack.
func TestVerifyPaperPack(t *testing.T) {
	packPath := filepath.Join(t.TempDir(), "paper.json")
	if err := run(io.Discard, "", "", "", true, packPath); err != nil {
		t.Fatal(err)
	}
	if err := verify(io.Discard, os.Stderr, packPath, 0); err != nil {
		t.Fatalf("paper pack replay: %v", err)
	}
}

// TestVerifyCensusPack round-trips a small anonbench-produced census
// capture through compare's -verify dispatcher.
func TestVerifyCensusPack(t *testing.T) {
	if testing.Short() {
		t.Skip("full capture replay")
	}
	p, err := microdata.CaptureResultPack(context.Background(), microdata.ResultCaptureConfig{
		Opts:       microdata.ExperimentOptions{CensusN: 150, Ks: []int{2, 5}, Seed: 3},
		Algorithms: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(t.TempDir(), "census.json")
	if err := microdata.WriteResultPack(p, packPath); err != nil {
		t.Fatal(err)
	}
	if err := verify(io.Discard, os.Stderr, packPath, 0); err != nil {
		t.Fatalf("census pack replay: %v", err)
	}
}

// TestGoldenCensusPack pins the acceptance contract against the committed
// golden pack: a clean tree replays it to exit 0, flipping any byte exits
// 2, and perturbing a recorded measure exits 5 with a path-level
// diagnostic naming the field. Each replay re-runs the full N=1000
// capture (about 0.5 s on a 2-vCPU host), so the test is skipped under
// -short.
func TestGoldenCensusPack(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden-pack replay")
	}
	const golden = "../../results/census-1k.json"
	if _, err := os.Stat(golden); err != nil {
		t.Skipf("golden pack not present: %v", err)
	}

	var out bytes.Buffer
	if err := verify(&out, os.Stderr, golden, 0); err != nil {
		t.Fatalf("clean golden pack: %v", err)
	}
	if !strings.Contains(out.String(), "source=census") {
		t.Errorf("verify output = %q", out.String())
	}

	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the recorded dataset fingerprint (staying valid
	// JSON — syntactically destroyed documents are invalid input, exit 6,
	// not tamper).
	flipped := append([]byte(nil), raw...)
	idx := bytes.Index(flipped, []byte(`"dataset_hash":"`))
	if idx < 0 {
		t.Fatal("dataset_hash not found in golden pack")
	}
	at := idx + len(`"dataset_hash":"`)
	if flipped[at] == 'x' {
		flipped[at] = 'y'
	} else {
		flipped[at] = 'x'
	}
	tamperPath := filepath.Join(t.TempDir(), "tampered.json")
	if err := os.WriteFile(tamperPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	err = verify(io.Discard, io.Discard, tamperPath, 0)
	if perf.ExitCode(err) != perf.ExitVerification {
		t.Fatalf("flipped byte: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}

	// Perturb one recorded measure and reseal: the manifest verifies, but
	// replay diverges at exactly that field.
	p, err := microdata.ReadResultPack(golden)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for i, a := range p.Algorithms {
		if a.Failed == "" {
			p.Algorithms[i].Measures["lm"] += 0.001
			target = fmt.Sprintf("algorithms[k=%d/%s].measures.lm", a.K, a.Algorithm)
			break
		}
	}
	p.Manifest = nil
	perturbPath := filepath.Join(t.TempDir(), "perturbed.json")
	if err := microdata.WriteResultPack(p, perturbPath); err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	err = verify(io.Discard, &diag, perturbPath, 0)
	if perf.ExitCode(err) != perf.ExitDrift {
		t.Fatalf("perturbed measure: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitDrift)
	}
	if !strings.Contains(diag.String(), target) {
		t.Errorf("diagnostic missing path %q:\n%s", target, diag.String())
	}
}
