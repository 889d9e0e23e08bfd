package privacy

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkEntropyBound fails unless EntropyLAtLeast agrees with the full
// computation, EntropyL(counts) >= l-1e-12, and leaves hist as it was.
// It returns the verdict and whether the bound decided it without
// copying the counts.
func checkEntropyBound(t *testing.T, hist []uint32, l float64) (ok, bounded bool) {
	t.Helper()
	return checkEntropyBoundAt(t, hist, EntropyL(Counts(nil, hist)), l)
}

// checkEntropyBoundAt is checkEntropyBound given hist's entropy ℓ e.
func checkEntropyBoundAt(t *testing.T, hist []uint32, e, l float64) (ok, bounded bool) {
	t.Helper()
	before := slices.Clone(hist)
	got, scratch := EntropyLAtLeast(hist, l, nil)
	if want := e >= l-1e-12; got != want {
		t.Fatalf("EntropyLAtLeast(%v, %v) = %v, EntropyL = %v (%v)", short(hist), l, got, e, want)
	}
	if !slices.Equal(hist, before) {
		t.Fatalf("EntropyLAtLeast reordered the histogram %v", short(hist))
	}
	return got, scratch == nil
}

func short(hist []uint32) []uint32 {
	if len(hist) > 8 {
		return hist[:8]
	}
	return hist
}

// around returns l and its float neighbours.
func around(l float64) []float64 {
	return []float64{math.Nextafter(l, math.Inf(-1)), l, math.Nextafter(l, math.Inf(1))}
}

// boundLevels returns entropy requirements at every threshold the rule
// has for hist: its computed entropy ℓ, that plus the rule's 1e-12
// slack, the collision bound N²/Σn² and the distinct count d, each with
// its float neighbours and scaled just inside and outside the margin.
func boundLevels(hist []uint32, e float64) []float64 {
	var n, sq float64
	for _, c := range hist {
		n += float64(c)
		sq += float64(c) * float64(c)
	}
	var ls []float64
	for _, l := range []float64{e, e + 1e-12, n * n / sq, float64(len(hist)), float64(len(hist)) + 1e-12} {
		ls = append(ls, around(l)...)
		for _, f := range []float64{1e-9, 1e-7, 1e-6, 1e-5} {
			ls = append(ls, l*(1-f), l*(1+f))
		}
	}
	return ls
}

func uniform(d int, c uint32) []uint32 {
	h := make([]uint32, d)
	for i := range h {
		h[i] = c
	}
	return h
}

// TestEntropyLAtLeastMatchesEntropyL pins the bounded entropy ℓ rule to
// the full computation: classes exactly at ℓ (where N²/Σn² or d equals
// it), just below and above at ±1 count, no value and a single value,
// counts near 2³² whose squares pass 2⁵³, and random histograms of up to
// 5,000 values.
func TestEntropyLAtLeastMatchesEntropyL(t *testing.T) {
	t.Run("exactly at ℓ", func(t *testing.T) {
		// Two equal counts at ℓ=2: N²/Σn² is exactly 2, so the pass bound
		// must not decide; the full computation does.
		if _, bounded := checkEntropyBound(t, []uint32{4, 4}, 2); bounded {
			t.Fatal("the bound decided a uniform class of 2 values at ℓ=2")
		}
		// Uniform classes have exp(H) = N²/Σn² = d, where EntropyL's
		// rounding meets the bound at every level.
		for d := 1; d <= 5000; d += 1 + d/16 {
			for _, c := range []uint32{1, 7, 1 << 20} {
				h := uniform(d, c)
				e := EntropyL(Counts(nil, h))
				for _, l := range boundLevels(h, e) {
					checkEntropyBoundAt(t, h, e, l)
				}
			}
		}
	})
	t.Run("±1 count", func(t *testing.T) {
		for _, h := range [][]uint32{{5, 5}, {3, 2, 1}, {10, 10, 10, 1}, {100, 99, 98, 97, 3}, uniform(40, 9)} {
			l := EntropyL(Counts(nil, h))
			for i := range h {
				for _, dc := range []int{-1, 1} {
					g := slices.Clone(h)
					g[i] = uint32(int(g[i]) + dc)
					if g[i] == 0 {
						continue
					}
					for _, m := range around(l) {
						checkEntropyBound(t, g, m)
					}
				}
			}
		}
	})
	t.Run("d=0 and d=1", func(t *testing.T) {
		// An empty class has entropy ℓ 0, not the 0/0 of its bound.
		for _, l := range []float64{1.5, 1e-13, 0, -1} {
			checkEntropyBound(t, nil, l)
		}
		for _, h := range [][]uint32{{1}, {5}, {math.MaxUint32}} {
			for _, l := range append(boundLevels(h, EntropyL(Counts(nil, h))), 0.5, 1.5, 2, 0, -1) {
				checkEntropyBound(t, h, l)
			}
		}
	})
	t.Run("counts near 2³²", func(t *testing.T) {
		for _, h := range [][]uint32{
			{1 << 31, 1<<31 - 3},             // N < 2³², Σn² past 2⁵³
			{1<<31 - 1, 1<<31 - 1},           // N = 2³² − 2
			{math.MaxUint32, 1},              // N = 2³², beyond the exact bound
			{math.MaxUint32, math.MaxUint32}, // N² past 2⁶⁴
			{1 << 30, 1 << 30, 1 << 30, 1<<30 - 1},
		} {
			for _, l := range boundLevels(h, EntropyL(Counts(nil, h))) {
				checkEntropyBound(t, h, l)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		// Each histogram is tried at four of its thresholds and at one
		// level drawn from [1, d+1]; every path must be taken. -short
		// draws a tenth of the histograms.
		rng := rand.New(rand.NewSource(34))
		var passed, failed, computed int
		hists := 10000
		if testing.Short() {
			hists = 1000
		}
		for i := 0; i < hists; i++ {
			h := make([]uint32, 1+rng.Intn(1+rng.Intn(1+rng.Intn(5000))))
			top := int64(1) << rng.Intn(33)
			for j := range h {
				h[j] = max(uint32(rng.Int63n(top)), 1)
			}
			e := EntropyL(Counts(nil, h))
			try := func(l float64) {
				switch ok, bounded := checkEntropyBoundAt(t, h, e, l); {
				case !bounded:
					computed++
				case ok:
					passed++
				default:
					failed++
				}
			}
			levels := boundLevels(h, e)
			for _, k := range rng.Perm(len(levels))[:4] {
				try(levels[k])
			}
			try(1 + rng.Float64()*float64(len(h)))
		}
		t.Logf("bound passed %d, failed %d, computed %d", passed, failed, computed)
		if calls := passed + failed + computed; min(passed, failed, computed) < calls/50 {
			t.Fatalf("the bound passed %d classes, failed %d and left %d to EntropyL; want 2%% of %d each", passed, failed, computed, calls)
		}
	})
}

// TestEntropyLAtLeastSkipsTheCopy pins that the bound decides clear
// classes without copying the counts, on both sides.
func TestEntropyLAtLeastSkipsTheCopy(t *testing.T) {
	for _, c := range []struct {
		hist    []uint32
		l       float64
		bounded bool
	}{
		{[]uint32{5, 5, 5, 5}, 1.5, true},    // N²/Σn² = 4 passes
		{[]uint32{9, 1, 1}, 3.5, true},       // d = 3 < 3.5 fails
		{[]uint32{7}, 1.5, true},             // d = 1 < 1.5 fails
		{[]uint32{9, 1, 1}, 1.5, false},      // N²/Σn² ≈ 1.46 < 1.5 ≤ d: computed
		{[]uint32{9, 1}, 2, false},           // d = 2 is not below ℓ = 2: computed
		{[]uint32{3, 3, 3}, 3 + 1e-7, false}, // within the margin of d: computed
	} {
		got, scratch := EntropyLAtLeast(c.hist, c.l, nil)
		want := EntropyL(Counts(nil, c.hist)) >= c.l-1e-12
		if got != want {
			t.Fatalf("EntropyLAtLeast(%v, %v) = %v, EntropyL says %v", c.hist, c.l, got, want)
		}
		if bounded := scratch == nil; bounded != c.bounded {
			t.Errorf("EntropyLAtLeast(%v, %v): decided by the bound %v, want %v", c.hist, c.l, bounded, c.bounded)
		}
	}
}

// FuzzEntropyBound decodes bytes into nonzero histogram counts and
// checks EntropyLAtLeast against the full computation at the fuzzed ℓ
// and at every threshold the rule has for the counts. The first byte
// picks the count width: 1, 2 or 4 bytes, little-endian.
func FuzzEntropyBound(f *testing.F) {
	f.Add([]byte{0, 4, 4}, 2.0)
	f.Add([]byte{0, 1, 1, 1, 1}, 4.0)
	f.Add([]byte{0, 9, 1, 1}, 1.5)
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0x7f}, 1.99)
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1}, math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, l float64) {
		if len(data) < 2 {
			return
		}
		width := 1 << (data[0] % 3)
		var hist []uint32
		for b := data[1:]; len(b) >= width && len(hist) < 5000; b = b[width:] {
			var c uint32
			switch width {
			case 1:
				c = uint32(b[0])
			case 2:
				c = uint32(binary.LittleEndian.Uint16(b))
			default:
				c = binary.LittleEndian.Uint32(b)
			}
			hist = append(hist, max(c, 1))
		}
		if len(hist) == 0 {
			return
		}
		e := EntropyL(Counts(nil, hist))
		for _, m := range append(boundLevels(hist, e), l) {
			checkEntropyBoundAt(t, hist, e, m)
		}
	})
}
