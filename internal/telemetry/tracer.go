package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer allocates span ids and collects finished spans for export. It is
// safe for concurrent use; spans from the engine's worker pool and from
// the calling goroutine interleave freely.
type Tracer struct {
	now   func() time.Time
	epoch time.Time

	nextID atomic.Uint64 // also the number of spans started

	mu       sync.Mutex
	finished []*Span
}

func newTracer(now func() time.Time) *Tracer {
	return &Tracer{now: now}
}

func (t *Tracer) start(name string, parentID uint64, attrs []Attr) *Span {
	return &Span{
		tracer:   t,
		ID:       t.nextID.Add(1),
		ParentID: parentID,
		Name:     name,
		start:    t.now(),
		attrs:    attrs,
	}
}

func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	t.finished = append(t.finished, s)
	t.mu.Unlock()
}

// Finished returns the recorded spans, ordered by (start time, id) so the
// export is deterministic regardless of which goroutine ended which span
// first.
func (t *Tracer) Finished() []*Span {
	t.mu.Lock()
	out := append([]*Span(nil), t.finished...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].start.Equal(out[j].start) {
			return out[i].start.Before(out[j].start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one trace_event entry; field order here fixes the JSON
// key order, keeping exports byte-stable for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the finished spans in Chrome trace_event
// format ("X" complete events, microsecond timestamps relative to the
// tracer's epoch), loadable in chrome://tracing and Perfetto. Span and
// parent ids travel in args so the hierarchy survives tools that only
// nest by time containment.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Finished()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := map[string]any{
			"span_id":   s.ID,
			"parent_id": s.ParentID,
		}
		for _, a := range s.Attrs() {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(s.Start().Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.Duration().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// SubtreeDurations sums, for each descendant NAME under root (root
// excluded), the total duration of spans with that name inside root's
// subtree — the per-phase wall-clock breakdown anonbench prints.
func SubtreeDurations(spans []*Span, root *Span) map[string]time.Duration {
	children := make(map[uint64][]*Span, len(spans))
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	out := map[string]time.Duration{}
	var walk func(id uint64)
	walk = func(id uint64) {
		for _, c := range children[id] {
			out[c.Name] += c.Duration()
			walk(c.ID)
		}
	}
	if root != nil {
		walk(root.ID)
	}
	return out
}

// String renders a span for debugging.
func (s *Span) String() string {
	if s == nil {
		return "<nil span>"
	}
	return fmt.Sprintf("span#%d(%s parent=%d dur=%v)", s.ID, s.Name, s.ParentID, s.Duration())
}
