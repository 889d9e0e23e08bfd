package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// TestNaNCanonicalized: whatever NaN bit pattern arrives (quiet, signaling
// payloads, negative sign), Gauge.Set and Histogram.Observe store the one
// canonical encoding, so snapshots are deterministic.
func TestNaNCanonicalized(t *testing.T) {
	nans := []uint64{
		0x7FF8000000000000, // canonical quiet NaN
		0x7FF8000000000042, // quiet NaN, nonzero payload
		0x7FF0000000000001, // signaling NaN
		0xFFF8000000000001, // negative quiet NaN
		0xFFFFFFFFFFFFFFFF, // all-ones NaN
	}
	reg := NewRegistry()
	for _, bits := range nans {
		v := math.Float64frombits(bits)
		if !math.IsNaN(v) {
			t.Fatalf("0x%X is not a NaN encoding", bits)
		}
		g := reg.Gauge("g")
		g.Set(v)
		if got := g.bits.Load(); got != canonicalNaNBits {
			t.Errorf("Gauge.Set(NaN 0x%X) stored 0x%X, want canonical 0x%X",
				bits, got, canonicalNaNBits)
		}
		h := reg.Histogram("h.nan", nil)
		h.Observe(v)
		if got := h.sumBits.Load(); got != canonicalNaNBits {
			t.Errorf("Histogram sum after NaN 0x%X = 0x%X, want canonical 0x%X",
				bits, got, canonicalNaNBits)
		}
	}
	// Once NaN, arithmetic keeps the sum NaN — and still canonical.
	h := reg.Histogram("h.nan", nil)
	h.Observe(5)
	if got := h.sumBits.Load(); got != canonicalNaNBits {
		t.Errorf("NaN sum + 5 = 0x%X, want canonical NaN", got)
	}
}

// TestConcurrentSnapshotInvariants snapshots a registry while GOMAXPROCS
// writers hammer it — run under -race in CI. Each snapshot must satisfy:
// counter values never decrease across consecutive snapshots, histogram
// buckets are cumulative non-decreasing with the +Inf bucket covering at
// least the count read at snapshot start.
func TestConcurrentSnapshotInvariants(t *testing.T) {
	reg := NewRegistry()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			h := reg.Histogram("h", []float64{10, 100, 1000})
			g := reg.Gauge("g")
			for i := 0; !stop.Load(); i++ {
				c.Inc()
				h.Observe(float64(i % 2000))
				g.Set(float64(i))
			}
		}()
	}

	var prevCounter int64
	for i := 0; i < 200; i++ {
		s := reg.Snapshot()
		if c, ok := s.Counters["c"]; ok {
			if c < prevCounter {
				t.Fatalf("counter went backwards: %d after %d", c, prevCounter)
			}
			prevCounter = c
		}
		if h, ok := s.Histograms["h"]; ok {
			var prev int64
			for bi, b := range h.Buckets {
				if b.Count < prev {
					t.Fatalf("bucket %d cumulative count %d < previous bucket %d", bi, b.Count, prev)
				}
				prev = b.Count
			}
			// Count is read before the buckets, so the +Inf bucket saw at
			// least as many observations.
			if last := h.Buckets[len(h.Buckets)-1].Count; last < h.Count {
				t.Fatalf("+Inf bucket %d < count %d", last, h.Count)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent: totals line up exactly.
	s := reg.Snapshot()
	h := s.Histograms["h"]
	if last := h.Buckets[len(h.Buckets)-1].Count; last != h.Count {
		t.Errorf("quiescent +Inf bucket %d != count %d", last, h.Count)
	}
	if s.Counters["c"] != h.Count {
		t.Errorf("quiescent counter %d != histogram count %d", s.Counters["c"], h.Count)
	}
}
