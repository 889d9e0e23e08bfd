// This file holds the vectorized grouping path: the radix/hash group-by
// over dictionary-code vectors that replaces '\x1f'-joined signature
// strings as the partitioning path. The test-only FromSignatures and
// WriteSignature remain the pinned reference; the cross-validation tests
// hold both paths element-identical.

package eqclass

import "fmt"

// radixMax bounds the (groups × cardinality) product under which a combine
// pass uses a flat radix table instead of a hash map. 1<<22 int32 slots is
// 16 MiB of scratch — cheap against the row vectors it indexes, and pooled
// across calls via getInt32.
const radixMax = 1 << 22

// FromCodes partitions n rows by the tuple of their per-column dictionary
// codes. cols holds one row-aligned code vector per column; cards[c] is an
// upper bound on the distinct codes of column c (its dictionary
// cardinality), or 0 when unknown. The resulting partition is canonical:
// classes ordered by first appearance of their code tuple, rows ascending
// within a class — element-identical to signing each row with
// WriteSignature and grouping via FromSignatures.
//
// Columns are combined pairwise: after column c every row holds a group id
// renumbered by first appearance, and column c+1 refines it through either
// a flat radix table (when groups×card fits radixMax) or a uint64 hash
// map. Both paths are allocation-lean integer loops — no per-row strings.
// FromCodes runs on the calling goroutine; concurrent calls are safe.
func FromCodes(cols [][]uint32, cards []int) (*Partition, error) {
	ids, groups, err := GroupCodes(cols, cards)
	if err != nil {
		return nil, err
	}
	return fromGroupIDs(ids, groups), nil
}

// GroupCodes is the group-by behind FromCodes without the row lists: it
// returns, per row, the id of the row's code tuple, numbered 0..groups-1
// in first-appearance order. Callers that only aggregate per group (the
// engine sums tuple counts) skip building a Partition.
func GroupCodes(cols [][]uint32, cards []int) (ids []uint32, groups int, err error) {
	if len(cols) == 0 {
		return nil, 0, fmt.Errorf("eqclass: no columns to partition on")
	}
	if len(cards) != len(cols) {
		return nil, 0, fmt.Errorf("eqclass: %d cardinalities for %d columns", len(cards), len(cols))
	}
	n := len(cols[0])
	for _, col := range cols[1:] {
		if len(col) != n {
			return nil, 0, fmt.Errorf("eqclass: ragged code vectors (%d vs %d rows)", len(col), n)
		}
	}
	if n == 0 {
		return nil, 0, fmt.Errorf("eqclass: no signatures to partition on")
	}
	ids = make([]uint32, n)
	groups = 1
	for c, codes := range cols {
		card := cards[c]
		if card <= 0 {
			for _, cd := range codes {
				if int(cd) >= card {
					card = int(cd) + 1
				}
			}
		}
		if groups, err = combine(ids, codes, groups, card); err != nil {
			return nil, 0, err
		}
	}
	return ids, groups, nil
}

// combine refines the group ids in place with one more code column,
// returning the new group count. Both paths reject a code at or above
// card, so a packed key never aliases another tuple's. New ids are assigned in first-appearance
// (row-scan) order, which keeps the final class order canonical. The radix
// table is pooled per-call scratch, so concurrent combines (concurrent
// engine node evaluations) never share state.
func combine(ids []uint32, codes []uint32, groups, card int) (int, error) {
	next := uint32(0)
	if prod := int64(groups) * int64(card); prod <= radixMax {
		lut := getInt32(int(prod))
		defer putInt32(lut)
		for i := range lut {
			lut[i] = -1
		}
		ucard := uint32(card)
		for i, cd := range codes {
			if cd >= ucard {
				return 0, fmt.Errorf("eqclass: code %d exceeds cardinality %d", cd, card)
			}
			k := ids[i]*ucard + cd
			g := lut[k]
			if g < 0 {
				g = int32(next)
				lut[k] = g
				next++
			}
			ids[i] = uint32(g)
		}
		return int(next), nil
	}
	m := make(map[uint64]uint32, groups)
	for i, cd := range codes {
		if int64(cd) >= int64(card) {
			return 0, fmt.Errorf("eqclass: code %d exceeds cardinality %d", cd, card)
		}
		k := uint64(ids[i])<<32 | uint64(cd)
		g, ok := m[k]
		if !ok {
			g = next
			m[k] = g
			next++
		}
		ids[i] = g
	}
	return int(next), nil
}

// fromGroupIDs materializes a Partition from per-row group ids numbered
// 0..groups-1 in first-appearance order, carving all classes out of one
// backing array.
func fromGroupIDs(ids []uint32, groups int) *Partition {
	p := &Partition{
		ClassOf: make([]int, len(ids)),
		n:       len(ids),
	}
	counts := make([]int, groups)
	for i, g := range ids {
		p.ClassOf[i] = int(g)
		counts[g]++
	}
	backing := make([]int, len(ids))
	p.Classes = make([][]int, groups)
	off := 0
	for g, c := range counts {
		p.Classes[g] = backing[off : off : off+c]
		off += c
	}
	for i, g := range ids {
		p.Classes[g] = append(p.Classes[g], i)
	}
	return p
}
