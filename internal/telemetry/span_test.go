package telemetry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock returns a deterministic time source: the n-th call yields
// base + n milliseconds. NewCollector consumes the first tick for the
// tracer epoch, so the first span starts at epoch+1ms.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// openSpans returns the number of spans started but not yet ended — zero
// after a well-instrumented run, even a cancelled one (spans are closed by
// defer).
func openSpans(tr *Tracer) int64 { return int64(tr.nextID.Load()) - int64(len(tr.Finished())) }

func installFakeCollector(t *testing.T) *Collector {
	t.Helper()
	col := NewCollector(WithClock(fakeClock()))
	prev := SetCollector(col)
	t.Cleanup(func() { SetCollector(prev) })
	return col
}

// TestSpanTree checks that nested Start calls thread parent links through
// the context and that the depth helpers see the full hierarchy.
func TestSpanTree(t *testing.T) {
	col := installFakeCollector(t)

	ctx, root := Start(context.Background(), "root")
	ctx2, child := Start(ctx, "child")
	ctx3, leaf := Start(ctx2, "leaf")

	if root.ID != 1 || child.ID != 2 || leaf.ID != 3 {
		t.Fatalf("ids = %d,%d,%d, want 1,2,3", root.ID, child.ID, leaf.ID)
	}
	if root.ParentID != 0 || child.ParentID != root.ID || leaf.ParentID != child.ID {
		t.Fatalf("parents = %d,%d,%d", root.ParentID, child.ParentID, leaf.ParentID)
	}
	if ctx3.Value(spanCtxKey{}) != leaf || ctx2.Value(spanCtxKey{}) != child || ctx.Value(spanCtxKey{}) != root {
		t.Fatal("the context does not carry the innermost span")
	}

	leaf.End()
	child.End()
	root.End()

	spans := col.Tracer.Finished()
	if len(spans) != 3 {
		t.Fatalf("finished %d spans, want 3", len(spans))
	}
	// Finished is sorted by start time: root started first.
	if spans[0] != root || spans[1] != child || spans[2] != leaf {
		t.Fatalf("finished order = %v,%v,%v", spans[0], spans[1], spans[2])
	}
	if got := openSpans(col.Tracer); got != 0 {
		t.Errorf("%d spans open, want 0", got)
	}
	// Fake clock: spans start at 2,3,4 ms and end at 5,6,7 ms.
	if d := leaf.Duration(); d != 1*time.Millisecond {
		t.Errorf("leaf duration = %v, want 1ms", d)
	}
	if d := root.Duration(); d != 5*time.Millisecond {
		t.Errorf("root duration = %v, want 5ms", d)
	}
}

// TestStartDisabled pins the disabled fast path: no collector installed
// means Start returns the context unchanged and a nil span, and every nil
// span method is a no-op.
func TestStartDisabled(t *testing.T) {
	prev := SetCollector(nil)
	defer SetCollector(prev)

	ctx := context.Background()
	ctx2, sp := Start(ctx, "x", String("k", "v"))
	if sp != nil {
		t.Fatalf("Start returned %v while disabled, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatal("Start allocated a new context while disabled")
	}
	// All nil-receiver methods must be safe.
	sp.SetAttr(Int("n", 1))
	sp.End()
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if a := sp.Attrs(); a != nil {
		t.Errorf("nil span attrs = %v", a)
	}
	if s := sp.String(); s != "<nil span>" {
		t.Errorf("nil span String = %q", s)
	}
}

// TestCancelledContextClosesSpans: an algorithm that bails out on ctx.Err
// still records its spans, because instrumentation sites close spans with
// defer. After the aborted call the tracer has no open spans.
func TestCancelledContextClosesSpans(t *testing.T) {
	col := installFakeCollector(t)

	work := func(ctx context.Context) error {
		ctx, sp := Start(ctx, "alg.search")
		defer sp.End()
		ctx, inner := Start(ctx, "engine.precompute")
		defer inner.End()
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := work(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("work returned %v, want context.Canceled", err)
	}
	if got := openSpans(col.Tracer); got != 0 {
		t.Errorf("%d spans open after cancelled run, want 0", got)
	}
	if got := len(col.Tracer.Finished()); got != 2 {
		t.Errorf("finished %d spans, want 2", got)
	}
}

// TestEndIdempotent: double End records the span once and keeps the first
// end time.
func TestEndIdempotent(t *testing.T) {
	col := installFakeCollector(t)
	_, sp := Start(context.Background(), "once")
	sp.End()
	d := sp.Duration()
	sp.End()
	if got := len(col.Tracer.Finished()); got != 1 {
		t.Fatalf("finished %d spans, want 1", got)
	}
	if sp.Duration() != d {
		t.Errorf("duration changed on second End: %v -> %v", d, sp.Duration())
	}
	// Attributes are frozen after End.
	sp.SetAttr(String("late", "x"))
	if got := len(sp.Attrs()); got != 0 {
		t.Errorf("attrs after End = %d, want 0", got)
	}
}

// TestSubtreeDurations: per-phase totals sum every same-named descendant
// under the root and exclude the root itself.
func TestSubtreeDurations(t *testing.T) {
	installFakeCollector(t)

	ctx, root := Start(context.Background(), "alg.search") // start 2ms
	_, pre := Start(ctx, "engine.precompute")              // start 3ms
	pre.End()                                              // end 4ms (dur 1ms)
	_, ev := Start(ctx, "engine.evaluate_all")             // start 5ms
	ev.End()                                               // end 6ms (dur 1ms)
	_, ev2 := Start(ctx, "engine.evaluate_all")            // start 7ms
	ev2.End()                                              // end 8ms (dur 1ms)
	root.End()                                             // end 9ms (dur 7ms)

	// A sibling root outside the subtree must not contribute.
	_, other := Start(context.Background(), "engine.precompute")
	other.End()

	c := Active()
	spans := c.Tracer.Finished()
	sub := SubtreeDurations(spans, root)
	if got := sub["engine.precompute"]; got != 1*time.Millisecond {
		t.Errorf("precompute subtree = %v, want 1ms", got)
	}
	if got := sub["engine.evaluate_all"]; got != 2*time.Millisecond {
		t.Errorf("evaluate_all subtree = %v, want 2ms", got)
	}
	if _, ok := sub["alg.search"]; ok {
		t.Error("root span counted in its own subtree")
	}
}
