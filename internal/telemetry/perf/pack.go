package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Schema identifies the perf-pack document type; Version is bumped on any
// backwards-incompatible shape change.
const (
	Schema  = "microdata/perf-pack"
	Version = 1
)

// Stable CLI exit codes shared by anonbench, compare and benchdiff.
// Scripts and CI branch on these instead of parsing output; the contract
// mirrors gait's PackSpec v1 codes.
const (
	// ExitOK: the command succeeded (for benchdiff: no drift).
	ExitOK = 0
	// ExitFailure: an internal/runtime error not covered by a specific code.
	ExitFailure = 1
	// ExitVerification: an artifact failed integrity verification — a pack
	// manifest hash mismatch, or an input that no longer hashes to the
	// fingerprint a pack recorded.
	ExitVerification = 2
	// ExitDrift: a statistical comparison found regression drift.
	ExitDrift = 5
	// ExitInvalid: the input was invalid (bad flags, unreadable or
	// wrong-schema files, unknown names).
	ExitInvalid = 6
)

// ExitError carries a stable exit code alongside the underlying error.
type ExitError struct {
	Code int
	Err  error
}

func (e *ExitError) Error() string { return e.Err.Error() }
func (e *ExitError) Unwrap() error { return e.Err }

// Exit wraps err with a stable exit code (nil stays nil).
func Exit(code int, err error) error {
	if err == nil {
		return nil
	}
	return &ExitError{Code: code, Err: err}
}

// Invalidf builds an ExitInvalid error.
func Invalidf(format string, args ...any) error {
	return Exit(ExitInvalid, fmt.Errorf(format, args...))
}

// ExitCode maps an error to the stable exit code contract: nil → ExitOK,
// a wrapped ExitError → its code, anything else → ExitFailure.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var ee *ExitError
	if errors.As(err, &ee) {
		return ee.Code
	}
	return ExitFailure
}

// Pack is one perf-pack document: the per-repetition samples of a
// benchmark run, sealed with a self-manifest.
type Pack struct {
	// Schema is always "microdata/perf-pack"; Version gates readers.
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Suite names what produced the pack ("benchmark" or
	// "benchmark-trace" for benchmark/ --pack).
	Suite string `json:"suite"`
	// Reps is the number of timed repetitions behind every sample series.
	Reps int `json:"reps"`
	// CreatedUnixMS timestamps pack creation (milliseconds since epoch).
	CreatedUnixMS int64 `json:"created_unix_ms"`
	// Env fingerprints the producing environment.
	Env Env `json:"env"`
	// Benchmarks holds one entry per benchmark, sorted by name.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Manifest seals the document; nil only while under construction.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// Env is the environment fingerprint recorded in every pack. Comparisons
// across differing fingerprints are legal (CI compares against baselines
// from other machines) but benchdiff surfaces the differences.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPUModel    string `json:"cpu_model,omitempty"`
	GitRevision string `json:"git_revision,omitempty"`
	// DatasetHash is the SHA-256 of the primary input table (see
	// dataset.Table.Hash); Seed/N/K are the generator parameters.
	DatasetHash string `json:"dataset_hash,omitempty"`
	Seed        int64  `json:"seed"`
	N           int    `json:"n"`
	K           int    `json:"k"`
}

// Benchmark is one named benchmark's recorded metric series.
type Benchmark struct {
	Name string `json:"name"`
	// Metrics maps metric name (wall_ns, allocs, ...) to its samples.
	Metrics map[string]Series `json:"metrics"`
}

// Series is one metric's per-repetition samples with its robust location
// and scale statistics (median and median absolute deviation).
type Series struct {
	Unit    string    `json:"unit,omitempty"`
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	MAD     float64   `json:"mad"`
}

// NewSeries builds a series from samples, computing median and MAD.
func NewSeries(unit string, samples []float64) Series {
	return Series{Unit: unit, Samples: samples, Median: Median(samples), MAD: MAD(samples)}
}

// Median returns the sample median (NaN for an empty series; NaN samples
// poison the result, as they do in any order statistic over floats).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for _, v := range s {
		if math.IsNaN(v) {
			return math.NaN()
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median.
func MAD(samples []float64) float64 {
	med := Median(samples)
	if math.IsNaN(med) {
		return math.NaN()
	}
	dev := make([]float64, len(samples))
	for i, v := range samples {
		dev[i] = math.Abs(v - med)
	}
	return Median(dev)
}

// Manifest is the pack's integrity seal: the digest is the SHA-256 of the
// canonical JSON encoding of the pack with the manifest field absent.
type Manifest struct {
	Algorithm string `json:"algorithm"`
	Digest    string `json:"digest"`
}

// CaptureEnv fills the process-environment half of the fingerprint
// (go version, OS/arch, CPU count, CPU model, git revision from build
// info); the caller sets the dataset half (hash, seed, N, K).
func CaptureEnv() Env {
	env := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				env.GitRevision = kv.Value
			}
		}
	}
	return env
}

// cpuModel extracts the CPU model name from /proc/cpuinfo (Linux); empty
// elsewhere — the fingerprint field is optional.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Seal sorts the benchmark list, computes the self-manifest over the
// canonical encoding of the pack without its manifest, and installs it.
func (p *Pack) Seal() error {
	sort.Slice(p.Benchmarks, func(i, j int) bool { return p.Benchmarks[i].Name < p.Benchmarks[j].Name })
	p.Manifest = nil
	digest, err := p.digest()
	if err != nil {
		return err
	}
	p.Manifest = &Manifest{Algorithm: "sha256", Digest: digest}
	return nil
}

// digest hashes the canonical encoding of the pack as-is (callers clear
// the manifest first).
func (p *Pack) digest() (string, error) {
	canon, err := CanonicalMarshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// WriteCanonical writes the sealed pack as canonical JSON followed by a
// trailing newline (the one concession to text tooling; the newline is not
// covered by the digest, and Read strips it).
func (p *Pack) WriteCanonical(w io.Writer) error {
	if p.Manifest == nil {
		if err := p.Seal(); err != nil {
			return err
		}
	}
	canon, err := CanonicalMarshal(p)
	if err != nil {
		return err
	}
	if _, err := w.Write(canon); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}

// WriteFile writes the sealed pack to path ("-" for stdout).
func (p *Pack) WriteFile(path string) error {
	if path == "-" {
		return p.WriteCanonical(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteCanonical(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses and validates a pack document: schema and version must
// match, and the manifest (when present) must verify against the document
// bytes. Schema/version mismatches and malformed JSON return ExitInvalid
// errors; a manifest mismatch returns an ExitVerification error.
func Read(raw []byte) (*Pack, error) {
	var p Pack
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("perf: parse pack: %w", err))
	}
	if p.Schema != Schema {
		return nil, Invalidf("perf: not a perf pack (schema %q, want %q)", p.Schema, Schema)
	}
	if p.Version != Version {
		return nil, Invalidf("perf: unsupported pack version %d (reader supports %d)", p.Version, Version)
	}
	if err := VerifyRaw(raw); err != nil {
		return nil, err
	}
	return &p, nil
}

// ReadFile reads and verifies a pack from disk.
func ReadFile(path string) (*Pack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("perf: %w", err))
	}
	p, err := Read(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// VerifyRaw checks the self-manifest of a serialized pack: the document
// minus its manifest field, canonicalized, must hash to the manifest
// digest. A pack without a manifest fails verification (unsealed
// artifacts carry no integrity claim). Any edit to the document after
// sealing — including a single timing digit — changes the canonical bytes
// and therefore the digest.
func VerifyRaw(raw []byte) error {
	var doc map[string]any
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return Exit(ExitInvalid, fmt.Errorf("perf: verify: %w", err))
	}
	mraw, ok := doc["manifest"].(map[string]any)
	if !ok {
		return Exit(ExitVerification, errors.New("perf: pack has no manifest"))
	}
	algo, _ := mraw["algorithm"].(string)
	want, _ := mraw["digest"].(string)
	if algo != "sha256" || want == "" {
		return Exit(ExitVerification, fmt.Errorf("perf: unsupported manifest algorithm %q", algo))
	}
	delete(doc, "manifest")
	inner, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	canon, err := Canonicalize(inner)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	got := hex.EncodeToString(sum[:])
	if got != want {
		return Exit(ExitVerification, fmt.Errorf("perf: manifest digest mismatch: document hashes to %s, manifest claims %s", got, want))
	}
	return nil
}

// VerifyFile reads path and checks its self-manifest.
func VerifyFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Exit(ExitInvalid, fmt.Errorf("perf: %w", err))
	}
	if err := VerifyRaw(raw); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Benchmark returns the named benchmark entry, or nil.
func (p *Pack) Benchmark(name string) *Benchmark {
	for i := range p.Benchmarks {
		if p.Benchmarks[i].Name == name {
			return &p.Benchmarks[i]
		}
	}
	return nil
}
