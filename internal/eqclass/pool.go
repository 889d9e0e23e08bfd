package eqclass

import "sync"

// The scratch pools recycle the vectors the group-by and the histogram
// merge would otherwise allocate per call: the radix lookup table of
// combine (getInt32), and merge's scattered entries, their counts and
// its per-class write cursors (getUint32), of which merge keeps only the
// merged entries, copied once into exactly sized storage. A get returns
// a slice of exactly the requested length with unspecified contents; the
// matching put recycles it for any goroutine. The pools are safe for
// concurrent use: each caller owns what it gets until it puts it back,
// which is what lets concurrent engine node evaluations share them.

var (
	int32Pool  = sync.Pool{New: func() any { return []int32(nil) }}
	uint32Pool = sync.Pool{New: func() any { return []uint32(nil) }}
)

func getInt32(n int) []int32 {
	s := int32Pool.Get().([]int32)
	if cap(s) < n {
		s = make([]int32, n)
	}
	return s[:n]
}

func putInt32(s []int32) { int32Pool.Put(s[:0]) } //nolint:staticcheck // slice header, not pointer

func getUint32(n int) []uint32 {
	s := uint32Pool.Get().([]uint32)
	if cap(s) < n {
		s = make([]uint32, n)
	}
	return s[:n]
}

func putUint32(s []uint32) { uint32Pool.Put(s[:0]) } //nolint:staticcheck // slice header, not pointer
