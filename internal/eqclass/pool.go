package eqclass

import "sync"

// The scratch pool recycles the vector the group-by would otherwise
// allocate per call: the radix lookup table of combine. getInt32 returns a
// slice of exactly the requested length with unspecified contents;
// putInt32 recycles it for any goroutine. The pool is safe for concurrent
// use: each caller owns what it gets until it puts it back, which is what
// lets concurrent engine node evaluations share it.

var int32Pool = sync.Pool{New: func() any { return []int32(nil) }}

func getInt32(n int) []int32 {
	s := int32Pool.Get().([]int32)
	if cap(s) < n {
		s = make([]int32, n)
	}
	return s[:n]
}

func putInt32(s []int32) { int32Pool.Put(s[:0]) } //nolint:staticcheck // slice header, not pointer
