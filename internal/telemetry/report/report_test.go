package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"microdata/internal/telemetry"
)

// fakeCollector returns a collector whose tracer runs on a deterministic
// millisecond-step clock, so phase durations are exact.
func fakeCollector() *telemetry.Collector {
	t := time.Unix(0, 0)
	return telemetry.NewCollector(telemetry.WithClock(func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}))
}

func TestReportShape(t *testing.T) {
	col := fakeCollector()
	prev := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prev)

	// Two spans of the same phase name sum; one of another.
	_, s1 := telemetry.Start(context.Background(), "engine.evaluate") // +1ms
	s1.End()                                                          // +1ms → 1ms
	_, s2 := telemetry.Start(context.Background(), "engine.evaluate")
	s2.End()
	_, s3 := telemetry.Start(context.Background(), "attack.prosecutor")
	s3.End()

	col.Metrics.Counter("engine.nodes.evaluated").Add(500)
	col.Metrics.Counter("engine.cache.hit").Add(90)
	col.Metrics.Counter("engine.cache.miss").Add(10)
	col.Metrics.Counter("engine.rows.scanned").Add(12345)
	col.Metrics.Counter("engine.eval.total_ns").Add(2_000_000)
	col.Metrics.Counter("attack.index.build.ns").Add(5_000_000)
	col.Metrics.Counter("attack.regions.probed").Add(77)

	r := Begin("anonbench", "experiments").Finish(col)
	if r.Schema != Schema || r.Version != Version {
		t.Fatalf("schema/version = %q/%d, want %q/%d", r.Schema, r.Version, Schema, Version)
	}
	if r.Command != "anonbench" || r.Mode != "experiments" {
		t.Errorf("identity = %q/%q", r.Command, r.Mode)
	}
	if r.Engine == nil {
		t.Fatal("engine summary missing despite engine.* counters")
	}
	if r.Engine.NodesEvaluated != 500 || r.Engine.CacheHits != 90 ||
		r.Engine.RowsScanned != 12345 || r.Engine.EvalMS != 2 {
		t.Errorf("engine summary = %+v", r.Engine)
	}
	if r.Attack == nil {
		t.Fatal("attack summary missing despite attack.* counters")
	}
	if r.Attack.RegionsProbed != 77 || r.Attack.IndexBuildMS != 5 {
		t.Errorf("attack summary = %+v", r.Attack)
	}
	// Each span spans one fake-clock tick = 1ms; two engine.evaluate spans.
	if r.PhasesMS["engine.evaluate"] != 2 || r.PhasesMS["attack.prosecutor"] != 1 {
		t.Errorf("phases = %v", r.PhasesMS)
	}
	if r.Metrics == nil || r.Metrics.Counters["engine.nodes.evaluated"] != 500 {
		t.Errorf("full metrics snapshot missing or wrong")
	}
	for _, gauge := range []string{"go.goroutines", "go.heap.objects.bytes", "go.gc.pause.total.seconds"} {
		if _, ok := r.Runtime[gauge]; !ok {
			t.Errorf("runtime gauges missing %q: %v", gauge, r.Runtime)
		}
	}
	if r.Runtime["go.goroutines"] < 1 {
		t.Errorf("go.goroutines = %v, want >= 1", r.Runtime["go.goroutines"])
	}
}

// TestReportOmitsAbsentSubsystems: without the sentinel counters the engine
// and attack roll-ups are omitted, and a nil collector never panics.
func TestReportOmitsAbsentSubsystems(t *testing.T) {
	col := fakeCollector()
	col.Metrics.Counter("something.else").Add(1)
	r := Begin("anonymize", "").Finish(col)
	if r.Engine != nil || r.Attack != nil {
		t.Errorf("summaries should be nil: engine=%+v attack=%+v", r.Engine, r.Attack)
	}
	bare := Begin("compare", "").Finish(nil)
	if bare.Metrics != nil || bare.PhasesMS != nil {
		t.Errorf("nil collector should yield no metrics/phases: %+v", bare)
	}
}

// TestReportJSONRoundTrip: WriteJSON output decodes, carries the schema
// marker, and omits empty sections.
func TestReportJSONRoundTrip(t *testing.T) {
	var buf strings.Builder
	if err := Begin("compare", "paper").Finish(nil).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, buf.String())
	}
	if doc["schema"] != Schema || doc["version"] != float64(Version) {
		t.Errorf("decoded schema/version = %v/%v", doc["schema"], doc["version"])
	}
	for _, absent := range []string{"engine", "attack", "metrics", "progress", "phases_ms"} {
		if _, ok := doc[absent]; ok {
			t.Errorf("empty section %q serialized", absent)
		}
	}
	for _, required := range []string{"command", "start", "duration_ms", "go_version", "gomaxprocs"} {
		if _, ok := doc[required]; !ok {
			t.Errorf("required field %q missing", required)
		}
	}
}

func TestResultPackLink(t *testing.T) {
	b := Begin("anonbench", "run")
	b.SetResultPack("results/census-1k.json", "")
	if r := b.Finish(nil); r.ResultPack != nil {
		t.Errorf("empty digest should not link: %+v", r.ResultPack)
	}
	b.SetResultPack("results/census-1k.json", "deadbeef")
	r := b.Finish(nil)
	if r.Version != 3 {
		t.Errorf("schema version = %d, want 3", r.Version)
	}
	if r.ResultPack == nil || r.ResultPack.Path != "results/census-1k.json" || r.ResultPack.SHA256 != "deadbeef" {
		t.Errorf("result-pack link = %+v", r.ResultPack)
	}
}
