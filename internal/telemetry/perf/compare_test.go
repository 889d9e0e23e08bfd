package perf

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// packWith builds a single-workload pack with the given job_s samples.
func packWith(name string, job []float64) *Pack {
	return &Pack{
		Schema: Schema, Version: Version, Suite: "benchmark", Reps: len(job),
		Benchmarks: []Benchmark{{
			Name: name,
			Metrics: map[string]Series{
				"job_s": NewSeries("s", job),
			},
		}},
	}
}

func verdictOf(t *testing.T, d *Diff, bench, metric string) Verdict {
	t.Helper()
	for _, r := range d.Rows {
		if r.Benchmark == bench && r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s/%s in %+v", bench, metric, d.Rows)
	return ""
}

func TestCompareNoDrift(t *testing.T) {
	// ±10% jitter around 100 ms: well inside the 25% envelope.
	base := packWith("w", []float64{0.1, 0.102, 0.098, 0.101, 0.099})
	cur := packWith("w", []float64{0.108, 0.095, 0.104, 0.099, 0.102})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictOK {
		t.Errorf("verdict = %s, want ok", got)
	}
	if !d.OK() {
		t.Errorf("diff not OK: %+v", d)
	}
}

func TestCompareRegression(t *testing.T) {
	base := packWith("w", []float64{0.1, 0.102, 0.098})
	cur := packWith("w", []float64{0.2, 0.205, 0.198}) // doubled
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictDrifted {
		t.Errorf("verdict = %s, want drifted", got)
	}
	if d.OK() || d.Drifted != 1 {
		t.Errorf("gate passed on a 2x regression: %+v", d)
	}
}

func TestCompareImprovement(t *testing.T) {
	base := packWith("w", []float64{0.2, 0.205, 0.198})
	cur := packWith("w", []float64{0.1, 0.102, 0.098})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictImproved {
		t.Errorf("verdict = %s, want improved", got)
	}
	if !d.OK() || d.Improved != 1 {
		t.Errorf("improvement failed the gate: %+v", d)
	}
}

func TestCompareMADWidensEnvelope(t *testing.T) {
	// A very noisy baseline (MAD 50 ms on a 100 ms median): a +35% shift
	// that would trip the 25% relative envelope stays within 4·MAD.
	base := packWith("w", []float64{0.05, 0.1, 0.15, 0.04, 0.16})
	cur := packWith("w", []float64{0.135, 0.135, 0.135})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictOK {
		t.Errorf("verdict = %s, want ok (MAD envelope)", got)
	}
}

func TestCompareNaNIsInvalid(t *testing.T) {
	base := packWith("w", []float64{0.1, math.NaN(), 0.098})
	cur := packWith("w", []float64{0.1, 0.101, 0.099})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictInvalid {
		t.Errorf("NaN baseline verdict = %s, want invalid", got)
	}
	if d.OK() {
		t.Error("gate passed with a NaN median")
	}
	// NaN on the current side is equally invalid.
	d, err = Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictInvalid {
		t.Errorf("NaN current verdict = %s, want invalid", got)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	// Zero baseline (a layer never called): the relative envelope and the
	// MAD are both zero, so an unchanged zero passes and any rise drifts.
	base := packWith("w", []float64{0, 0, 0})
	d, err := Compare(base, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictOK {
		t.Errorf("zero against zero = %s, want ok", got)
	}
	if r := d.Rows[0]; !math.IsNaN(float64(r.Ratio)) {
		t.Errorf("ratio against zero baseline = %v, want NaN", r.Ratio)
	}
	d, err = Compare(base, packWith("w", []float64{0.001, 0.001, 0.001}), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "job_s"); got != VerdictDrifted {
		t.Errorf("rise from a zero baseline = %s, want drifted", got)
	}
}

func TestCompareMissingBenchmarkFailsGate(t *testing.T) {
	base := packWith("w", []float64{0.1})
	base.Benchmarks = append(base.Benchmarks, Benchmark{
		Name:    "dropped",
		Metrics: map[string]Series{"job_s": NewSeries("s", []float64{0.001})},
	})
	cur := packWith("w", []float64{0.1})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || len(d.Missing) != 1 || d.Missing[0] != "dropped" {
		t.Errorf("dropped benchmark not flagged: %+v", d)
	}
	// New benchmarks in cur are fine.
	d, err = Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Errorf("new benchmark failed the gate: %+v", d)
	}
}

func TestCompareUngatedMetricsAreInfo(t *testing.T) {
	base := packWith("w", []float64{0.1})
	cur := packWith("w", []float64{0.1})
	// A 100x rise in a per-layer metric must not gate.
	base.Benchmarks[0].Metrics["go.gc_cycles"] = NewSeries("count", []float64{4})
	cur.Benchmarks[0].Metrics["go.gc_cycles"] = NewSeries("count", []float64{400})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdictOf(t, d, "w", "go.gc_cycles"); got != VerdictInfo {
		t.Errorf("ungated verdict = %s, want info", got)
	}
	if !d.OK() {
		t.Errorf("info metric failed the gate: %+v", d)
	}
}

func TestDiffTableRendersDrift(t *testing.T) {
	base := packWith("w", []float64{0.1})
	cur := packWith("w", []float64{0.22})
	base.Benchmarks[0].Metrics["setup_s"] = NewSeries("s", []float64{0.0042})
	cur.Benchmarks[0].Metrics["setup_s"] = NewSeries("s", []float64{0.0126})
	base.Benchmarks[0].Metrics["peak_rss_mb"] = NewSeries("MB", []float64{1234.5})
	cur.Benchmarks[0].Metrics["peak_rss_mb"] = NewSeries("MB", []float64{1234.5})
	d, err := Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	d.WriteTable(&buf, false)
	out := buf.String()
	// Values below 1 keep three significant digits: a 0.0042 s setup must
	// not print as 0 beside its 3.00x ratio.
	rows := []string{
		"w  job_s  0.1  0.22  2.20x  drifted",
		"w  setup_s  0.0042  0.0126  3.00x  drifted",
		"w  peak_rss_mb  1234.5  1234.5  1.00x  ok",
		"verdict: 2 drifted, 0 improved, 0 missing",
	}
	squeezed := strings.Join(strings.Fields(out), " ")
	for _, want := range rows {
		if !strings.Contains(squeezed, strings.Join(strings.Fields(want), " ")) {
			t.Errorf("table missing row %q:\n%s", want, out)
		}
	}
}

func TestMedianMAD(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := Median(nil); !math.IsNaN(got) {
		t.Errorf("median empty = %v, want NaN", got)
	}
	if got := MAD([]float64{1, 1, 1}); got != 0 {
		t.Errorf("MAD constant = %v", got)
	}
	if got := MAD([]float64{1, 2, 9}); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
}
