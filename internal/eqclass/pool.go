package eqclass

import "sync"

// The scratch pools recycle the vectors the group-by would otherwise
// allocate per call: the radix lookup table of combine and the histogram
// tally of ValueCountsColumn. get returns a slice of exactly the requested
// length with unspecified contents; put recycles it for any goroutine. The
// pools are safe for concurrent use: each caller owns what it gets until it
// puts it back, which is what lets concurrent engine node evaluations share
// them.

var (
	int32Pool = sync.Pool{New: func() any { return []int32(nil) }}
	intPool   = sync.Pool{New: func() any { return []int(nil) }}
)

func getInt32(n int) []int32 {
	s := int32Pool.Get().([]int32)
	if cap(s) < n {
		s = make([]int32, n)
	}
	return s[:n]
}

func putInt32(s []int32) { int32Pool.Put(s[:0]) } //nolint:staticcheck // slice header, not pointer

func getInt(n int) []int {
	s := intPool.Get().([]int)
	if cap(s) < n {
		s = make([]int, n)
	}
	return s[:n]
}

func putInt(s []int) { intPool.Put(s[:0]) } //nolint:staticcheck // slice header, not pointer
