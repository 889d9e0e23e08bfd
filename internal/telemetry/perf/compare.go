package perf

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Verdict classifies one metric's change between two packs.
type Verdict string

const (
	// VerdictOK: within the noise envelope.
	VerdictOK Verdict = "ok"
	// VerdictImproved: significantly better (lower) than the baseline.
	VerdictImproved Verdict = "improved"
	// VerdictDrifted: significantly worse (higher) than the baseline.
	VerdictDrifted Verdict = "drifted"
	// VerdictInvalid: not comparable (NaN median on either side) — counted
	// as drift, since a benchmark that stops producing numbers is broken.
	VerdictInvalid Verdict = "invalid"
	// VerdictInfo: an ungated per-layer metric, reported but never failing.
	VerdictInfo Verdict = "info"
)

// Gated is the metric set whose drift fails the gate: the end-to-end
// metrics of the repository benchmark (BENCHMARK.json "end_to_end"). The
// per-layer series a pack also carries report as info.
var Gated = []string{"job_s", "cpu_s", "peak_rss_mb", "setup_s"}

// madFactor scales the baseline's median absolute deviation into the noise
// envelope, so noisy workloads get wider bands.
const madFactor = 4

// CompareOptions tunes the significance test. A gated metric drifts when
// the current median exceeds the baseline median by more than the noise
// envelope max(RelThreshold·baseline, 4·MAD(baseline)); it improves when it
// undercuts the baseline by the same margin.
type CompareOptions struct {
	// RelThreshold is the relative significance threshold (default 0.25:
	// ±25% of the baseline median is noise).
	RelThreshold float64
}

// MetricDiff is one (benchmark, metric) comparison row.
type MetricDiff struct {
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	Unit      string `json:"unit,omitempty"`
	Base      Float  `json:"base_median"`
	BaseMAD   Float  `json:"base_mad"`
	Cur       Float  `json:"cur_median"`
	// Ratio is cur/base (NaN when base is zero).
	Ratio   Float   `json:"ratio"`
	Verdict Verdict `json:"verdict"`
}

// Diff is the full comparison of two packs.
type Diff struct {
	BaseSuite string       `json:"base_suite"`
	CurSuite  string       `json:"cur_suite"`
	Rows      []MetricDiff `json:"rows"`
	// Missing lists benchmarks present in the baseline but absent from the
	// current pack — a silently dropped benchmark fails the gate.
	Missing []string `json:"missing,omitempty"`
	// EnvChanges lists the fingerprint fields that differ between the
	// packs, one structured entry per field.
	EnvChanges []EnvChange `json:"env_changes,omitempty"`
	Drifted    int         `json:"drifted"`
	Improved   int         `json:"improved"`
}

// OK reports whether the gate passes: no drifted/invalid gated metrics and
// no missing benchmarks.
func (d *Diff) OK() bool { return d.Drifted == 0 && len(d.Missing) == 0 }

// Compare evaluates cur against base benchmark-by-benchmark. Benchmarks
// only in cur are ignored (new benchmarks are legal); benchmarks only in
// base are recorded as missing and fail the gate.
func Compare(base, cur *Pack, opts CompareOptions) (*Diff, error) {
	if base == nil || cur == nil {
		return nil, Invalidf("perf: compare: nil pack")
	}
	if opts.RelThreshold <= 0 {
		opts.RelThreshold = 0.25
	}
	d := &Diff{BaseSuite: base.Suite, CurSuite: cur.Suite, EnvChanges: diffEnv(base.Env, cur.Env)}
	for _, bb := range base.Benchmarks {
		cb := cur.Benchmark(bb.Name)
		if cb == nil {
			d.Missing = append(d.Missing, bb.Name)
			continue
		}
		for _, metric := range sortedMetricNames(bb.Metrics) {
			bs := bb.Metrics[metric]
			cs, ok := cb.Metrics[metric]
			if !ok {
				continue
			}
			row := MetricDiff{
				Benchmark: bb.Name, Metric: metric, Unit: bs.Unit,
				Base: Float(bs.Median), BaseMAD: Float(bs.MAD), Cur: Float(cs.Median),
				Ratio: Float(ratio(bs.Median, cs.Median)),
			}
			if !slices.Contains(Gated, metric) {
				row.Verdict = VerdictInfo
			} else {
				row.Verdict = classify(bs, cs, opts.RelThreshold)
				switch row.Verdict {
				case VerdictDrifted, VerdictInvalid:
					d.Drifted++
				case VerdictImproved:
					d.Improved++
				}
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// classify applies the noise-envelope test to one gated metric.
func classify(base, cur Series, relThreshold float64) Verdict {
	if math.IsNaN(base.Median) || math.IsNaN(cur.Median) {
		return VerdictInvalid
	}
	envelope := relThreshold * math.Abs(base.Median)
	if mad := madFactor * base.MAD; !math.IsNaN(mad) && mad > envelope {
		envelope = mad
	}
	delta := cur.Median - base.Median
	switch {
	case delta > envelope:
		return VerdictDrifted
	case delta < -envelope:
		return VerdictImproved
	default:
		return VerdictOK
	}
}

func ratio(base, cur float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return cur / base
}

func sortedMetricNames(m map[string]Series) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// EnvChange is one differing environment-fingerprint field.
type EnvChange struct {
	Field string `json:"field"`
	Base  string `json:"base"`
	Cur   string `json:"cur"`
}

func (c EnvChange) String() string {
	return fmt.Sprintf("%s: %s -> %s", c.Field, orDash(c.Base), orDash(c.Cur))
}

// diffEnv lists the fingerprint fields that differ between two
// environments, so a reader can attribute apparent drift to a go-version,
// CPU or dataset change instead of a code change.
func diffEnv(a, b Env) []EnvChange {
	var out []EnvChange
	diff := func(field, av, bv string) {
		if av != bv {
			out = append(out, EnvChange{Field: field, Base: av, Cur: bv})
		}
	}
	diff("go_version", a.GoVersion, b.GoVersion)
	diff("goos/goarch", a.GOOS+"/"+a.GOARCH, b.GOOS+"/"+b.GOARCH)
	diff("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	diff("num_cpu", fmt.Sprint(a.NumCPU), fmt.Sprint(b.NumCPU))
	diff("cpu_model", a.CPUModel, b.CPUModel)
	diff("git_revision", a.GitRevision, b.GitRevision)
	diff("dataset_hash", a.DatasetHash, b.DatasetHash)
	diff("n/k/seed", fmt.Sprintf("%d/%d/%d", a.N, a.K, a.Seed), fmt.Sprintf("%d/%d/%d", b.N, b.K, b.Seed))
	return out
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// WriteTable renders the per-metric drift table. With verbose false only
// gated and non-ok rows print; with verbose true every row prints.
func (d *Diff) WriteTable(w io.Writer, verbose bool) {
	if len(d.EnvChanges) > 0 {
		fields := make([]string, len(d.EnvChanges))
		for i, c := range d.EnvChanges {
			fields[i] = c.Field
		}
		fmt.Fprintf(w, "env fingerprint differs in %d field(s): %s\n",
			len(d.EnvChanges), strings.Join(fields, ", "))
		for _, ch := range d.EnvChanges {
			fmt.Fprintf(w, "  env %s\n", ch)
		}
	}
	fmt.Fprintf(w, "%-48s %-12s %14s %14s %8s  %s\n",
		"benchmark", "metric", "base", "current", "ratio", "verdict")
	for _, r := range d.Rows {
		if !verbose && r.Verdict == VerdictInfo {
			continue
		}
		ratio := "-"
		if !math.IsNaN(float64(r.Ratio)) {
			ratio = fmt.Sprintf("%.2fx", r.Ratio)
		}
		fmt.Fprintf(w, "%-48s %-12s %14s %14s %8s  %s\n",
			r.Benchmark, r.Metric, fmtMetric(float64(r.Base)), fmtMetric(float64(r.Cur)), ratio, r.Verdict)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(w, "%-48s %-12s %14s %14s %8s  %s\n", m, "-", "-", "-", "-", "missing")
	}
	fmt.Fprintf(w, "verdict: %d drifted, %d improved, %d missing\n",
		d.Drifted, d.Improved, len(d.Missing))
}

// fmtMetric prints a median compactly: millions with an M suffix, values
// from 1 up with two decimals, and smaller ones with three significant
// digits, so a 0.0042 s setup does not print as 0.
func fmtMetric(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case math.Abs(v) >= 1:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	default:
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
}
