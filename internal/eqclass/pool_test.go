package eqclass

import (
	"math/rand"
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
	if is := getInt(64); len(is) != 64 {
		t.Fatalf("getInt(64) len = %d", len(is))
	}
	// nil / empty are tolerated.
	putInt32(nil)
	putInt(nil)
	if got := getInt32(0); len(got) != 0 {
		t.Fatalf("getInt32(0) len = %d", len(got))
	}
}

// TestPooledScratchConcurrent hammers the pooled radix LUT and histogram
// scratch from many goroutines, as concurrent engine node evaluations do;
// run with -race it proves the pools hand out disjoint buffers.
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
	wantCounts, err := want.ValueCountsColumn(sens)
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
				counts, err := got.ValueCountsColumn(sens)
				if err != nil {
					t.Error(err)
					return
				}
				for ci := range wantCounts {
					for k, c := range wantCounts[ci] {
						if counts[ci][k] != c {
							t.Errorf("class %d value %q: count %d, want %d", ci, k, counts[ci][k], c)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
