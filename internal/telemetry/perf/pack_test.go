package perf

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// fixturePack builds a fully deterministic pack (no timestamps, no
// captured environment) for the golden and manifest tests.
func fixturePack() *Pack {
	return &Pack{
		Schema:        Schema,
		Version:       Version,
		Suite:         "attack",
		Reps:          3,
		CreatedUnixMS: 1754600000000,
		Env: Env{
			GoVersion: "go1.22.0", GOOS: "linux", GOARCH: "amd64",
			GOMAXPROCS: 4, NumCPU: 4,
			DatasetHash: "ab12", Seed: 1, N: 1000, K: 5,
		},
		Benchmarks: []Benchmark{
			{
				Name: "attack/prosecutor/datafly/indexed-serial",
				Metrics: map[string]Series{
					"wall_ns": NewSeries("ns", []float64{1900000, 2000000, 2100000}),
					"allocs":  NewSeries("count", []float64{1200, 1200, 1201}),
				},
			},
			{
				Name: "attack/journalist/mondrian/indexed",
				Metrics: map[string]Series{
					"wall_ns": NewSeries("ns", []float64{35000000, 34000000, 36000000}),
				},
			},
		},
	}
}

// goldenPackJSON pins the canonical serialization byte-for-byte: sorted
// keys, no whitespace, benchmarks sorted by name, manifest last
// alphabetically among top-level keys it sorts into place.
const goldenPackJSON = `{"benchmarks":[{"metrics":{"wall_ns":{"mad":1000000,"median":35000000,"samples":[35000000,34000000,36000000],"unit":"ns"}},"name":"attack/journalist/mondrian/indexed"},{"metrics":{"allocs":{"mad":0,"median":1200,"samples":[1200,1200,1201],"unit":"count"},"wall_ns":{"mad":100000,"median":2000000,"samples":[1900000,2000000,2100000],"unit":"ns"}},"name":"attack/prosecutor/datafly/indexed-serial"}],"created_unix_ms":1754600000000,"env":{"dataset_hash":"ab12","go_version":"go1.22.0","goarch":"amd64","gomaxprocs":4,"goos":"linux","k":5,"n":1000,"num_cpu":4,"seed":1},"manifest":{"algorithm":"sha256","digest":"DIGEST"},"reps":3,"schema":"microdata/perf-pack","suite":"attack","version":1}`

func TestPackCanonicalGolden(t *testing.T) {
	p := fixturePack()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteCanonical(&buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSuffix(buf.String(), "\n")
	want := strings.Replace(goldenPackJSON, "DIGEST", p.Manifest.Digest, 1)
	if got != want {
		t.Errorf("canonical pack JSON drifted from golden:\n got: %s\nwant: %s", got, want)
	}
	// Sealing is deterministic: a second seal of the same content yields
	// the same digest.
	d1 := p.Manifest.Digest
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	if p.Manifest.Digest != d1 {
		t.Errorf("re-seal changed digest: %s vs %s", p.Manifest.Digest, d1)
	}
	if len(d1) != 64 {
		t.Errorf("digest is not a sha256 hex string: %q", d1)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	raw := []byte(`{"b": 2, "a": {"z": [3, 1.5, "x<y"], "m": null}, "c": true}`)
	c1, err := Canonicalize(raw)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Canonicalize(c1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("canonicalize not idempotent:\n1: %s\n2: %s", c1, c2)
	}
	want := `{"a":{"m":null,"z":[3,1.5,"x<y"]},"b":2,"c":true}`
	if string(c1) != want {
		t.Errorf("canonical form = %s, want %s", c1, want)
	}
}

// TestCanonicalStringMatchesEncoder pins the canonical string writer to
// encoding/json with HTML escaping off, byte for byte: HTML metacharacters,
// quote and backslash, every single byte (each control byte, and each
// invalid UTF-8 byte, which becomes U+FFFD), U+2028 and U+2029, multi-byte
// runes, and truncated, overlong and surrogate sequences.
func TestCanonicalStringMatchesEncoder(t *testing.T) {
	corpus := []string{
		"", "plain", "<>&", `"`, `\`, `a"b\c`, "x<y&z>w",
		"\u2028", "\u2029", "a\u2028b\u2029c",
		"é", "中文", "😀", "naïve café — ok",
		"\xe2\x80", "\xc0\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "ok\xffok",
	}
	for b := 0; b < 256; b++ {
		corpus = append(corpus, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range corpus {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		writeCanonicalString(&got, s)
		if w := bytes.TrimSuffix(want.Bytes(), []byte("\n")); !bytes.Equal(got.Bytes(), w) {
			t.Errorf("%q: wrote %s, encoding/json writes %s", s, got.Bytes(), w)
		}
	}
}

func TestExitCodeMapping(t *testing.T) {
	if got := ExitCode(nil); got != ExitOK {
		t.Errorf("nil -> %d", got)
	}
	if got := ExitCode(errors.New("boom")); got != ExitFailure {
		t.Errorf("plain error -> %d", got)
	}
	wrapped := Exit(ExitDrift, errors.New("drifted"))
	if got := ExitCode(wrapped); got != ExitDrift {
		t.Errorf("drift error -> %d", got)
	}
	// The code survives further wrapping.
	if got := ExitCode(errors.Join(errors.New("ctx"), wrapped)); got != ExitDrift {
		t.Errorf("wrapped drift error -> %d", got)
	}
}
