package perf

import (
	"errors"
	"fmt"
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

// Kind, SortSections and ManifestField make a Pack an envelope Document;
// the benchmark list sorts by name.
func (*Pack) Kind() (string, int)         { return Schema, Version }
func (p *Pack) ManifestField() **Manifest { return &p.Manifest }
func (p *Pack) SortSections() {
	sort.Slice(p.Benchmarks, func(i, j int) bool { return p.Benchmarks[i].Name < p.Benchmarks[j].Name })
}

// WriteFile is the envelope writer as a method, the form the benchmark
// module calls.
func (p *Pack) WriteFile(path string) error { return WriteFile(path, p) }

// ReadFile reads and verifies a perf pack from disk.
func ReadFile(path string) (*Pack, error) { return Load[Pack](path) }

// Benchmark returns the named benchmark entry, or nil.
func (p *Pack) Benchmark(name string) *Benchmark {
	for i := range p.Benchmarks {
		if p.Benchmarks[i].Name == name {
			return &p.Benchmarks[i]
		}
	}
	return nil
}
