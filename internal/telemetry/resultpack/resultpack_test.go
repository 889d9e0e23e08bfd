package resultpack

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microdata/internal/telemetry/perf"
)

// samplePack builds a pack exercising every section plus the degenerate
// float values property vectors can produce.
func samplePack() *Pack {
	return &Pack{
		Schema:        Schema,
		Version:       Version,
		Source:        SourceCensus,
		CreatedUnixMS: 1700000000000,
		Env:           perf.Env{GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4, NumCPU: 4, DatasetHash: "abc123", Seed: 1, N: 1000, K: 10},
		Ks:            []int{2, 10},
		Experiments:   []string{"E14", "E1"},
		Algorithms: []AlgorithmResult{
			{
				Algorithm: "mondrian", K: 10, KActual: 10, Classes: 71, Suppressed: 0,
				Measures: map[string]Float{
					"lm":        0.25,
					"prec":      Float(math.NaN()),
					"entropy_l": Float(math.Inf(1)),
					"t_close":   Float(math.Inf(-1)),
					"cavg":      Float(math.Copysign(0, -1)),
				},
				ClassShape: &ShapeStats{Min: 10, Q1: 11, Median: 13, Q3: 16, Max: 31, Gini: 0.17},
			},
			{Algorithm: "datafly", K: 2, Node: "[1 0 2 0 0 0 0 0]", KActual: 3, Classes: 120, Measures: map[string]Float{"lm": 0.5}},
			{Algorithm: "genetic", K: 2, Failed: "cannot satisfy k within suppression budget"},
		},
		Attack: []AttackRisk{
			{
				Algorithm: "mondrian", K: 10,
				Prosecutor: &RiskSummary{Mean: 0.05, Median: 0.04, Max: 0.1},
				Journalist: &RiskSummary{Mean: 0.02, Median: 0.01, Max: 0.05},
				Marketer:   0.03,
			},
		},
		AttackPopulation: &PopulationSpec{N: 2000, Seed: 2, Hash: "def456"},
		Tables: []TableDigest{
			{ID: "E14", SHA256: "aaaa", Bytes: 1234},
			{ID: "E1", SHA256: "bbbb", Bytes: 99},
		},
		Comparisons: []ComparisonResult{{
			Left: "a.csv", Right: "b.csv", KLeft: 4, KRight: 5,
			Dominance:  "incomparable",
			Privacy:    map[string]string{"cov": "left", "spr": "tie"},
			UtilityCov: "right", WTD: "left",
		}},
		Files: []FileFingerprint{{Role: "a", Path: "a.csv", SHA256: "cccc"}},
	}
}

func TestFloatSpellingPinned(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{math.Copysign(0, -1), `-0`},
		{0, `0`},
		{0.25, `0.25`},
		{1e21, `1e+21`},
		{-1.5e-7, `-1.5e-07`},
	}
	for _, c := range cases {
		got, err := json.Marshal(Float(c.in))
		if err != nil {
			t.Fatalf("marshal %v: %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Float(%v) = %s, want %s", c.in, got, c.want)
		}
		var back Float
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", got, err)
		}
		b, a := math.Float64bits(float64(back)), math.Float64bits(c.in)
		if b != a && !(math.IsNaN(float64(back)) && math.IsNaN(c.in)) {
			t.Errorf("Float %s round-trips to %v (bits %x), want %v (bits %x)", got, float64(back), b, c.in, a)
		}
	}
	var f Float
	if err := json.Unmarshal([]byte(`"Infinity"`), &f); err == nil {
		t.Error("unpinned spelling \"Infinity\" should be rejected")
	}
}

// TestCanonicalBytesStable pins the canonical encoding of the degenerate
// floats byte-for-byte: NaN/±Inf spelling, -0 keeping its sign, sorted
// keys. A second marshal must reproduce the same bytes (map-order
// independence), which is what makes the manifest digest reproducible
// across process runs.
func TestCanonicalBytesStable(t *testing.T) {
	p := &Pack{
		Schema: Schema, Version: Version, Source: SourceCensus,
		Algorithms: []AlgorithmResult{{
			Algorithm: "x", K: 2,
			Measures: map[string]Float{
				"nan":     Float(math.NaN()),
				"pinf":    Float(math.Inf(1)),
				"ninf":    Float(math.Inf(-1)),
				"negzero": Float(math.Copysign(0, -1)),
				"poszero": 0,
				"frac":    0.1,
			},
		}},
	}
	const want = `{"algorithms":[{"algorithm":"x","k":2,"measures":{"frac":0.1,"nan":"NaN","negzero":-0,"ninf":"-Inf","pinf":"+Inf","poszero":0}}],"created_unix_ms":0,"env":{"go_version":"","goarch":"","gomaxprocs":0,"goos":"","k":0,"n":0,"num_cpu":0,"seed":0},"schema":"microdata/result-pack","source":"census","version":1}`
	for run := 0; run < 2; run++ {
		got, err := perf.CanonicalMarshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("run %d canonical bytes =\n%s\nwant\n%s", run, got, want)
		}
	}
}

// writePack seals p into a file with the shared envelope writer and
// returns its path and bytes.
func writePack(t *testing.T, p *Pack) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pack.json")
	if err := perf.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

// TestSealWriteReadRoundTrip pins what the result-pack kind adds to the
// shared envelope: its canonical section order, and a ReadFile that keeps
// every section and the degenerate float measures.
func TestSealWriteReadRoundTrip(t *testing.T) {
	p := samplePack()
	path, raw := writePack(t, p)
	if p.Manifest == nil || p.Manifest.Algorithm != "sha256" || p.Manifest.Digest == "" {
		t.Fatalf("pack not sealed: %+v", p.Manifest)
	}
	// Sealing sorts sections canonically.
	if p.Algorithms[0].K != 2 || p.Algorithms[0].Algorithm != "datafly" {
		t.Errorf("algorithms not sorted by (k, name): %+v", p.Algorithms[0])
	}
	if p.Tables[0].ID != "E1" || p.Experiments[0] != "E1" {
		t.Error("tables/experiments not sorted")
	}

	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Source != SourceCensus || len(back.Algorithms) != 3 || len(back.Attack) != 1 {
		t.Fatalf("round-trip lost sections: %+v", back)
	}
	m := back.Algorithms[2].Measures // mondrian at k=10 after sorting
	if !math.IsNaN(float64(m["prec"])) || !math.IsInf(float64(m["entropy_l"]), 1) || !math.IsInf(float64(m["t_close"]), -1) {
		t.Errorf("degenerate measures lost in round-trip: %v", m)
	}
	if v := float64(m["cavg"]); v != 0 || !math.Signbit(v) {
		t.Errorf("negative zero lost: %v (signbit %v)", v, math.Signbit(v))
	}
	// A second write of the re-read pack reproduces identical bytes.
	var again bytes.Buffer
	back.Manifest = nil
	if err := perf.WriteCanonical(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Error("re-sealed pack bytes differ from the original seal")
	}
}

// TestTamperFailsVerification checks that ReadFile, the reader compare
// -verify and the benchmark use, refuses an edited measure and data
// appended after the document with exit 2.
func TestTamperFailsVerification(t *testing.T) {
	path, raw := writePack(t, samplePack())
	tampered := bytes.Replace(raw, []byte(`"lm":0.25`), []byte(`"lm":0.26`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper target not found")
	}
	for name, edit := range map[string][]byte{
		"edited measure": tampered,
		"byte appended":  append(raw[:len(raw):len(raw)], 'x'),
	} {
		if err := os.WriteFile(path, edit, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); perf.ExitCode(err) != perf.ExitVerification {
			t.Errorf("%s: exit %d (%v), want %d", name, perf.ExitCode(err), err, perf.ExitVerification)
		}
	}
}

// TestReadRejectsWrongSchemaAndVersion checks that ReadFile accepts only
// the result-pack schema at its own version: anything else is invalid
// input (exit 6).
func TestReadRejectsWrongSchemaAndVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pack.json")
	for _, bad := range []string{
		`{"schema":"microdata/perf-pack","version":1}`,
		`{"schema":"microdata/result-pack","version":99}`,
		`not json`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); perf.ExitCode(err) != perf.ExitInvalid {
			t.Errorf("%s: exit %d (%v), want %d", bad, perf.ExitCode(err), err, perf.ExitInvalid)
		}
	}
}

func TestTableRecorder(t *testing.T) {
	var rec TableRecorder
	rec.Add("E14", [32]byte{1}, 10)
	rec.Add("E1", [32]byte{2}, 20)
	got := rec.Tables()
	if len(got) != 2 || got[0].ID != "E1" || got[1].ID != "E14" {
		t.Fatalf("recorder tables = %+v", got)
	}
	if got[0].Bytes != 20 || !strings.HasPrefix(got[0].SHA256, "02") {
		t.Errorf("digest fields wrong: %+v", got[0])
	}
	var nilRec *TableRecorder
	nilRec.Add("E1", [32]byte{}, 1) // must not panic
	if nilRec.Tables() != nil {
		t.Error("nil recorder should return nil tables")
	}
}
