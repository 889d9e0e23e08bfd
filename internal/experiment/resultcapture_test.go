package experiment

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

var captureOnce struct {
	sync.Once
	pack *resultpack.Pack
	err  error
}

// capturedPack runs one small full capture (algorithms + attack + one
// table) shared across the tests in this file.
func capturedPack(t *testing.T) *resultpack.Pack {
	t.Helper()
	captureOnce.Do(func() {
		captureOnce.pack, captureOnce.err = CaptureResults(context.Background(), CaptureConfig{
			Opts:        Options{CensusN: 200, Ks: []int{2, 5}, Seed: 1},
			Experiments: []string{"E1"},
			Algorithms:  true,
			Attack:      true,
		})
	})
	if captureOnce.err != nil {
		t.Fatalf("capture: %v", captureOnce.err)
	}
	return captureOnce.pack
}

func TestCaptureSealsAllSections(t *testing.T) {
	p := capturedPack(t)
	if p.Manifest == nil || p.Manifest.Digest == "" {
		t.Fatal("capture returned an unsealed pack")
	}
	if p.Source != resultpack.SourceCensus || p.Env.N != 200 || p.Env.Seed != 1 {
		t.Errorf("pack env/source wrong: source=%q env=%+v", p.Source, p.Env)
	}
	if p.Env.DatasetHash == "" {
		t.Error("dataset fingerprint missing")
	}
	// 11 roster algorithms × 2 ks, each either a result or a Failed record.
	if len(p.Algorithms) != 22 {
		t.Errorf("algorithms = %d rows, want 22", len(p.Algorithms))
	}
	for _, a := range p.Algorithms {
		if a.Failed == "" && (a.Classes <= 0 || len(a.Measures) != 7 || a.ClassShape == nil) {
			t.Errorf("incomplete algorithm row: %+v", a)
		}
	}
	if len(p.Attack) != 11 {
		t.Errorf("attack = %d rows, want 11", len(p.Attack))
	}
	// Attack runs at the middle k of {2, 5}.
	if p.Attack[0].K != 5 || p.Env.K != 5 {
		t.Errorf("attack k = %d, env k = %d, want 5", p.Attack[0].K, p.Env.K)
	}
	if p.AttackPopulation == nil || p.AttackPopulation.N != 400 || p.AttackPopulation.Seed != 2 {
		t.Errorf("population spec = %+v", p.AttackPopulation)
	}
	if len(p.Tables) != 1 || p.Tables[0].ID != "E1" || p.Tables[0].Bytes <= 0 || p.Tables[0].SHA256 == "" {
		t.Errorf("tables = %+v", p.Tables)
	}

	// The sealed document round-trips through the verifying reader.
	var buf bytes.Buffer
	if err := perf.WriteCanonical(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := perf.Read[resultpack.Pack](buf.Bytes()); err != nil {
		t.Fatalf("sealed capture fails verification: %v", err)
	}
}

func TestReplayMatchesCapture(t *testing.T) {
	p := capturedPack(t)
	replay, err := ReplayPack(context.Background(), p)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if divs := resultpack.Diff(p, replay, resultpack.DiffOptions{}); len(divs) != 0 {
		for _, d := range divs {
			t.Errorf("divergence: %s", d)
		}
		t.Fatalf("replay diverges from capture in %d fields", len(divs))
	}

	// A perturbed recorded measure shows up as exactly one path-level
	// divergence naming the field.
	tampered := *p
	tampered.Algorithms = append([]resultpack.AlgorithmResult(nil), p.Algorithms...)
	var target string
	for i, a := range tampered.Algorithms {
		if a.Failed != "" {
			continue
		}
		m := make(map[string]resultpack.Float, len(a.Measures))
		for k, v := range a.Measures {
			m[k] = v
		}
		m["lm"] += 0.001
		tampered.Algorithms[i].Measures = m
		target = "algorithms[k=" + strconv.Itoa(a.K) + "/" + a.Algorithm + "].measures.lm"
		break
	}
	divs := resultpack.Diff(&tampered, replay, resultpack.DiffOptions{})
	if len(divs) != 1 || divs[0].Path != target {
		t.Fatalf("perturbed measure: divs=%v, want one at %s", divs, target)
	}
}

func TestReplayRejectsDatasetHashMismatch(t *testing.T) {
	p := capturedPack(t)
	bad := *p
	bad.Env.DatasetHash = "0000000000000000"
	_, err := ReplayPack(context.Background(), &bad)
	if perf.ExitCode(err) != perf.ExitVerification {
		t.Fatalf("hash mismatch: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitVerification)
	}
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Errorf("error should name the fingerprint mismatch: %v", err)
	}
}

func TestReplayRejectsNonCensusSource(t *testing.T) {
	p := &resultpack.Pack{Schema: resultpack.Schema, Version: resultpack.Version, Source: resultpack.SourceFiles}
	_, err := ReplayPack(context.Background(), p)
	if perf.ExitCode(err) != perf.ExitInvalid {
		t.Fatalf("files-source replay: exit %d (%v), want %d", perf.ExitCode(err), err, perf.ExitInvalid)
	}
}
