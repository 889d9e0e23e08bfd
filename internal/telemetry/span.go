package telemetry

import (
	"context"
	"sync"
	"time"
)

// Attr is one span attribute. Values should be strings, integers, floats
// or bools so trace exports stay JSON-stable.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Span is one timed operation. Spans are created by Start, carry their
// parent link through the context, and are recorded by the tracer when
// End is called. All methods are safe on a nil receiver — a disabled
// telemetry layer hands out nil spans, so instrumentation sites need no
// conditionals.
type Span struct {
	tracer *Tracer
	// ID is the span's identifier, unique within its tracer, assigned in
	// start order beginning at 1.
	ID uint64
	// ParentID links to the enclosing span, 0 for roots.
	ParentID uint64
	// Name identifies the operation ("samarati.search", ...).
	Name string

	start time.Time
	mu    sync.Mutex
	attrs []Attr
	end   time.Time
	ended bool
}

// SetAttr attaches attributes to the span. No-op after End.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
}

// End closes the span and records it with the tracer. Safe to call more
// than once (only the first call records), and safe under a cancelled
// context — algorithms close their spans with defer, so aborted searches
// still produce complete traces.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tracer.now()
	s.mu.Unlock()
	s.tracer.record(s)
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end−start for an ended span, 0 otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

type spanCtxKey struct{}

// Start opens a span under the active Collector's tracer, parented to the
// span carried by ctx (if any), and returns a context carrying the new
// span for nested Starts. When telemetry is disabled it returns the
// context unchanged and a nil span after a single atomic load — the no-op
// fast path every hot instrumentation site relies on.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	c := active.Load()
	if c == nil || c.Tracer == nil {
		return ctx, nil
	}
	var parentID uint64
	if p, ok := ctx.Value(spanCtxKey{}).(*Span); ok && p != nil {
		parentID = p.ID
	}
	s := c.Tracer.start(name, parentID, attrs)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}
