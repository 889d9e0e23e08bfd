package eqclass

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"microdata/internal/dataset"
)

func TestPools(t *testing.T) {
	s := getInt32(100)
	if len(s) != 100 {
		t.Fatalf("getInt32(100) len = %d", len(s))
	}
	putInt32(s)
	// A recycled slice comes back with the requested length and may hold
	// stale contents: callers always reset it before use.
	if s2 := getInt32(50); len(s2) != 50 {
		t.Fatalf("getInt32(50) after put = len %d", len(s2))
	}
	// nil / empty are tolerated.
	putInt32(nil)
	if got := getInt32(0); len(got) != 0 {
		t.Fatalf("getInt32(0) len = %d", len(got))
	}
}

// TestPooledScratchConcurrent hammers the pooled radix LUT from many
// goroutines, as concurrent engine node evaluations do, tallying each
// partition's histograms too; run with -race it proves the pool hands out
// disjoint buffers.
func TestPooledScratchConcurrent(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(11))
	cols := make([][]uint32, 3)
	cards := []int{5, 5, 5}
	for c := range cols {
		cols[c] = make([]uint32, n)
		for i := range cols[c] {
			cols[c][i] = uint32(rng.Intn(cards[c]))
		}
	}
	want, err := FromCodes(cols, cards)
	if err != nil {
		t.Fatal(err)
	}

	vals := []dataset.Value{dataset.StrVal("a"), dataset.StrVal("b"), dataset.StrVal("c")}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i % len(vals))
	}
	sens, err := dataset.ColumnFromCodes(vals, codes)
	if err != nil {
		t.Fatal(err)
	}
	wantHist, err := want.Histograms(sens)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				got, err := FromCodes(cols, cards)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want.ClassOf {
					if got.ClassOf[i] != want.ClassOf[i] {
						t.Errorf("ClassOf[%d] = %d, want %d", i, got.ClassOf[i], want.ClassOf[i])
						return
					}
				}
				h, err := got.Histograms(sens)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(h.Off, wantHist.Off) || !slices.Equal(h.Sens, wantHist.Sens) || !slices.Equal(h.Hist, wantHist.Hist) {
					t.Errorf("histograms %+v, want %+v", h, wantHist)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledTablesAcrossSizes interleaves group-bys whose radix tables
// differ in size by orders of magnitude, on one goroutine so they reuse
// the pooled tables, with calls that fail halfway. Each must match a
// map-keyed reference whatever an earlier call left in the pooled table.
func TestPooledTablesAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type call struct {
		cols  [][]uint32
		cards []int
		fails bool
	}
	gen := func(n int, cards ...int) call {
		c := call{cols: make([][]uint32, len(cards)), cards: cards}
		for j := range c.cols {
			c.cols[j] = make([]uint32, n)
			for i := range c.cols[j] {
				c.cols[j][i] = uint32(rng.Intn(cards[j]))
			}
		}
		return c
	}
	// Each step draws fresh codes, so a slot left set by an earlier call
	// would misplace rows rather than repeat the earlier grouping.
	large := func() call { return gen(2000, 200, 300) }
	small := func() call { return gen(200, 3, 2, 4) }
	tiny := func() call { return gen(5, 2) }
	// A code past its cardinality fails after earlier rows set slots, in
	// a large table and in a small one.
	badLarge := func() call {
		c := gen(400, 150, 400)
		c.cols[1][300], c.fails = 400, true
		return c
	}
	badSmall := func() call {
		c := gen(400, 3, 3)
		c.cols[1][300], c.fails = 3, true
		return c
	}

	want := func(c call) []uint32 {
		seen := map[[3]uint32]uint32{}
		ids := make([]uint32, len(c.cols[0]))
		for i := range ids {
			var key [3]uint32
			for j := range c.cols {
				key[j] = c.cols[j][i]
			}
			g, ok := seen[key]
			if !ok {
				g = uint32(len(seen))
				seen[key] = g
			}
			ids[i] = g
		}
		return ids
	}
	for step, next := range []func() call{large, small, tiny, badLarge, large, small, badSmall, large, tiny, badLarge, large} {
		c := next()
		ids, _, err := GroupCodes(c.cols, c.cards)
		if c.fails {
			if err == nil {
				t.Fatalf("step %d: out-of-range code accepted", step)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range want(c) {
			if ids[i] != g {
				t.Fatalf("step %d (%d rows): row %d in group %d, want %d", step, len(ids), i, ids[i], g)
			}
		}
	}
}
