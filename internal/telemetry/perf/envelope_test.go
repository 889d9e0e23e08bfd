package perf_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// kind is one row of the envelope table: a pack kind, an unsealed fixture
// of it with its sections out of canonical order, a payload substring to
// tamper with, its reader, and a check that a read-back copy kept the
// payload.
type kind struct {
	name    string
	schema  string
	fixture func() perf.Document
	tamper  [2]string
	read    func(raw []byte) (perf.Document, error)
	check   func(t *testing.T, back perf.Document)
}

var kinds = []kind{
	{
		name:   "perf-pack",
		schema: perf.Schema,
		fixture: func() perf.Document {
			return &perf.Pack{
				Schema: perf.Schema, Version: perf.Version, Suite: "benchmark", Reps: 3,
				Env: perf.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Seed: 1, N: 1000, K: 5},
				Benchmarks: []perf.Benchmark{
					{Name: "paper-replay", Metrics: map[string]perf.Series{"job_s": perf.NewSeries("s", []float64{0.6, 0.612, 0.588})}},
					{Name: "assess-10k", Metrics: map[string]perf.Series{"job_s": perf.NewSeries("s", []float64{0.09, 0.091, 0.089})}},
				},
			}
		},
		tamper: [2]string{"0.612", "0.613"},
		read: func(raw []byte) (perf.Document, error) {
			p, err := perf.Read[perf.Pack](raw)
			if err != nil {
				return nil, err
			}
			return p, nil
		},
		check: func(t *testing.T, back perf.Document) {
			p := back.(*perf.Pack)
			if p.Suite != "benchmark" || p.Reps != 3 || len(p.Benchmarks) != 2 || p.Benchmarks[0].Name != "assess-10k" {
				t.Errorf("read-back lost content or order: %+v", p)
			}
		},
	},
	{
		name:   "result-pack",
		schema: resultpack.Schema,
		fixture: func() perf.Document {
			return &resultpack.Pack{
				Schema: resultpack.Schema, Version: resultpack.Version, Source: resultpack.SourceCensus,
				Env:         perf.Env{GoVersion: "go1.24.0", DatasetHash: "abc123", Seed: 1, N: 1000, K: 10},
				Experiments: []string{"E14", "E1"},
				Algorithms: []resultpack.AlgorithmResult{
					{Algorithm: "mondrian", K: 10, KActual: 10, Measures: map[string]resultpack.Float{
						"lm":        0.25,
						"prec":      resultpack.Float(math.NaN()),
						"entropy_l": resultpack.Float(math.Inf(1)),
						"cavg":      resultpack.Float(math.Copysign(0, -1)),
					}},
					{Algorithm: "datafly", K: 2, Node: "[1 0 2 0 0 0 0 0]", KActual: 3},
				},
			}
		},
		tamper: [2]string{`"lm":0.25`, `"lm":0.26`},
		read: func(raw []byte) (perf.Document, error) {
			p, err := perf.Read[resultpack.Pack](raw)
			if err != nil {
				return nil, err
			}
			return p, nil
		},
		check: func(t *testing.T, back perf.Document) {
			p := back.(*resultpack.Pack)
			if len(p.Algorithms) != 2 || p.Algorithms[0].Algorithm != "datafly" || p.Experiments[0] != "E1" {
				t.Errorf("read-back lost content or order: %+v", p)
			}
		},
	},
}

// sealed writes k's fixture with the one envelope writer and returns the
// sealed document and its bytes on disk.
func sealed(t *testing.T, k kind) (perf.Document, []byte) {
	t.Helper()
	d := k.fixture()
	path := filepath.Join(t.TempDir(), "pack.json")
	if err := perf.WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	if err := perf.VerifyFile(path); err != nil {
		t.Fatalf("sealed pack does not verify: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return d, raw
}

// TestManifestRoundTrip runs the one seal/write/read implementation over
// both pack kinds: a sealed pack reads back with its payload and manifest
// and re-seals to the same bytes.
func TestManifestRoundTrip(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			d, raw := sealed(t, k)
			m := *d.ManifestField()
			if m == nil || m.Algorithm != "sha256" || len(m.Digest) != 64 {
				t.Fatalf("pack not sealed: %+v", m)
			}
			back, err := k.read(raw)
			if err != nil {
				t.Fatal(err)
			}
			k.check(t, back)
			if got := *back.ManifestField(); got == nil || got.Digest != m.Digest {
				t.Errorf("read-back manifest %+v, want digest %s", got, m.Digest)
			}
			*back.ManifestField() = nil
			var again bytes.Buffer
			if err := perf.WriteCanonical(&again, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Errorf("re-sealed bytes differ from the original seal:\n%s\n%s", again.Bytes(), raw)
			}
		})
	}
}

// TestVerifyDetectsTampering runs the one verifier over both pack kinds:
// every edit after sealing, and a pack with no manifest, fails
// verification and reading with exit 2.
func TestVerifyDetectsTampering(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			_, raw := sealed(t, k)
			edited := bytes.Replace(raw, []byte(k.tamper[0]), []byte(k.tamper[1]), 1)
			if bytes.Equal(edited, raw) {
				t.Fatalf("tamper target %q not found", k.tamper[0])
			}
			var obj map[string]any
			if err := json.Unmarshal(raw, &obj); err != nil {
				t.Fatal(err)
			}
			delete(obj, "manifest")
			unsealed, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				raw  []byte
			}{
				{"edited payload digit", edited},
				{"byte appended", append(raw[:len(raw):len(raw)], 'x')},
				{"second newline appended", append(raw[:len(raw):len(raw)], '\n')},
				{"second document appended", append(raw[:len(raw):len(raw)], raw...)},
				{"no manifest", unsealed},
			} {
				if err := perf.VerifyRaw(c.raw); perf.ExitCode(err) != perf.ExitVerification {
					t.Errorf("%s: verify exit %d (%v), want %d", c.name, perf.ExitCode(err), err, perf.ExitVerification)
				}
				if _, err := k.read(c.raw); perf.ExitCode(err) != perf.ExitVerification {
					t.Errorf("%s: read exit %d (%v), want %d", c.name, perf.ExitCode(err), err, perf.ExitVerification)
				}
			}
		})
	}
}

// TestReadRejectsWrongSchema checks that a document of the wrong schema
// or version, or not JSON, is invalid input (exit 6) to either reader,
// and that each kind rejects the other's packs.
func TestReadRejectsWrongSchema(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for _, bad := range []string{
				`{"schema":"something/else","version":1}`,
				`{"schema":"` + k.schema + `","version":99}`,
				`["not", "an", "object"]`,
				`not json`,
			} {
				if _, err := k.read([]byte(bad)); perf.ExitCode(err) != perf.ExitInvalid {
					t.Errorf("read %s: exit %d (%v), want %d", bad, perf.ExitCode(err), err, perf.ExitInvalid)
				}
			}
		})
	}
	for i, k := range kinds {
		_, raw := sealed(t, kinds[1-i])
		if _, err := k.read(raw); perf.ExitCode(err) != perf.ExitInvalid {
			t.Errorf("%s reader on a %s: exit %d (%v), want %d", k.name, kinds[1-i].name, perf.ExitCode(err), err, perf.ExitInvalid)
		}
	}
}

// TestCommittedPacksReseal reads every committed pack, clears its
// manifest and seals it again: the digest must come out as committed, so
// the committed packs verify with no reseal.
func TestCommittedPacksReseal(t *testing.T) {
	for _, c := range []struct {
		path string
		kind int
	}{
		{"../../../bench/full.json", 0},
		{"../../../bench/groupby-1m.json", 0},
		{"../../../results/census-1k.json", 1},
	} {
		raw, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := kinds[c.kind].read(raw)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		want := (*d.ManifestField()).Digest
		if err := perf.Seal(d); err != nil {
			t.Fatal(err)
		}
		if got := (*d.ManifestField()).Digest; got != want {
			t.Errorf("%s: re-sealed digest %s, committed %s", c.path, got, want)
		}
	}
}
