package telemetry

import (
	"context"
	"strings"
	"testing"
)

// TestChromeTraceGolden pins the exact trace_event JSON for a small span
// tree under the fake clock: stable field order, microsecond timestamps
// relative to the epoch, args carrying span/parent ids and attributes with
// sorted keys.
func TestChromeTraceGolden(t *testing.T) {
	col := installFakeCollector(t)

	ctx, root := Start(context.Background(), "root", String("mode", "test")) // start 2ms
	ctx2, child := Start(ctx, "child", Int("k", 5))                          // start 3ms
	_, leaf := Start(ctx2, "leaf")                                           // start 4ms
	leaf.End()                                                               // end 5ms
	child.End()                                                              // end 6ms
	root.End()                                                               // end 7ms

	var buf strings.Builder
	if err := col.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "traceEvents": [
    {
      "name": "root",
      "cat": "span",
      "ph": "X",
      "ts": 1000,
      "dur": 5000,
      "pid": 1,
      "tid": 1,
      "args": {
        "mode": "test",
        "parent_id": 0,
        "span_id": 1
      }
    },
    {
      "name": "child",
      "cat": "span",
      "ph": "X",
      "ts": 2000,
      "dur": 3000,
      "pid": 1,
      "tid": 1,
      "args": {
        "k": 5,
        "parent_id": 1,
        "span_id": 2
      }
    },
    {
      "name": "leaf",
      "cat": "span",
      "ph": "X",
      "ts": 3000,
      "dur": 1000,
      "pid": 1,
      "tid": 1,
      "args": {
        "parent_id": 2,
        "span_id": 3
      }
    }
  ],
  "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome trace mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsSnapshotGolden pins the exact snapshot JSON: sorted keys,
// cumulative Prometheus-style buckets, "+Inf" as the last bound.
// Instruments are registered in shuffled order on purpose — matching the
// golden bytes proves Registry.Do's sorted-order guarantee, which WriteJSON
// byte-stability is built on.
func TestMetricsSnapshotGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("ola.nodes_tagged").Set(12)
	reg.Counter("engine.cache.miss").Add(1)
	reg.Counter("engine.cache.hit").Add(3)
	h := reg.Histogram("engine.eval.ns", []float64{1e3, 1e6})
	h.Observe(500)
	h.Observe(250_000)
	h.Observe(2_000_000)

	var buf strings.Builder
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "counters": {
    "engine.cache.hit": 3,
    "engine.cache.miss": 1
  },
  "gauges": {
    "ola.nodes_tagged": 12
  },
  "histograms": {
    "engine.eval.ns": {
      "count": 3,
      "sum": 2250500,
      "buckets": [
        {
          "le": "1000",
          "count": 1
        },
        {
          "le": "1000000",
          "count": 2
        },
        {
          "le": "+Inf",
          "count": 3
        }
      ]
    }
  }
}
`
	if got := buf.String(); got != want {
		t.Errorf("metrics snapshot mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestEmptySnapshotGolden: an empty registry serializes to an empty object
// (omitempty on every section) so -metrics on a span-free run stays valid
// JSON.
func TestEmptySnapshotGolden(t *testing.T) {
	var buf strings.Builder
	if err := NewRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{}\n" {
		t.Errorf("empty snapshot = %q, want {}\\n", got)
	}
}
