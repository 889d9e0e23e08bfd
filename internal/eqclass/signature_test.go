package eqclass

import (
	"fmt"
	"strings"

	"microdata/internal/dataset"
)

// WriteSignature and FromSignatures are the string-signature grouping that
// FromColumns and FromCodes replaced; the cross-validation tests pin the
// vectorized path against them.

// WriteSignature appends the '\x1f'-separated Value.Key signature of row i
// of t restricted to cols — the grouping key FromColumns partitions by.
// Callers that signature many rows reuse one strings.Builder (Reset
// between rows) to avoid the quadratic cost of string concatenation in a
// loop.
func WriteSignature(sb *strings.Builder, t *dataset.Table, i int, cols []int) {
	for _, j := range cols {
		sb.WriteString(t.At(i, j).Key())
		sb.WriteByte('\x1f')
	}
}

// FromSignatures groups rows by a precomputed per-row signature — the
// partition FromColumns would produce if element i were the concatenation
// of row i's column keys. Classes are ordered by first appearance,
// exactly as FromColumns orders them.
func FromSignatures(sigs []string) (*Partition, error) {
	if len(sigs) == 0 {
		return nil, fmt.Errorf("eqclass: no signatures to partition on")
	}
	p := &Partition{
		ClassOf: make([]int, len(sigs)),
		n:       len(sigs),
	}
	index := make(map[string]int)
	var counts []int
	for i, sig := range sigs {
		ci, ok := index[sig]
		if !ok {
			ci = len(counts)
			index[sig] = ci
			counts = append(counts, 0)
		}
		counts[ci]++
		p.ClassOf[i] = ci
	}
	// Carve every class out of one backing array sized by the counts from
	// the first pass; growing each class append-by-append reallocates
	// O(log class-size) times per class, which dominates large sweeps.
	backing := make([]int, len(sigs))
	p.Classes = make([][]int, len(counts))
	off := 0
	for ci, c := range counts {
		p.Classes[ci] = backing[off : off : off+c]
		off += c
	}
	for i, ci := range p.ClassOf {
		p.Classes[ci] = append(p.Classes[ci], i)
	}
	return p, nil
}
