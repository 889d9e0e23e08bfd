// Package lattice models the full-domain generalization lattice used by
// global-recoding disclosure control algorithms (Samarati, Incognito,
// optimal exhaustive search, the genetic algorithm).
//
// A node of the lattice is a vector of per-attribute generalization levels,
// one entry per quasi-identifier. The partial order is component-wise: node
// u is below node v (v is "at least as generalized") when u[i] <= v[i] for
// all i. The height of a node is the sum of its levels; the bottom node
// (0,...,0) is the original table and the top node is full suppression.
package lattice

import (
	"fmt"
	"strconv"
)

// Node is a vector of generalization levels, one per quasi-identifier in
// schema order. Nodes are value-like; Clone before mutating shared ones.
type Node []int

// Clone returns a copy of the node.
func (n Node) Clone() Node {
	c := make(Node, len(n))
	copy(c, n)
	return c
}

// Height returns the sum of levels, the node's stratum in the lattice.
func (n Node) Height() int {
	h := 0
	for _, l := range n {
		h += l
	}
	return h
}

// AtMost reports whether n is component-wise at most m, i.e. m is at least
// as generalized as n in every attribute.
func (n Node) AtMost(m Node) bool {
	if len(n) != len(m) {
		return false
	}
	for i := range n {
		if n[i] > m[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string for use as a map key: the level vector
// as fmt prints a []int, "[a b c]". Packs record nodes in this form.
func (n Node) Key() string {
	var arr [64]byte // on the stack; lattices of a dozen attributes fit
	buf := append(arr[:0], '[')
	for i, l := range n {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(l), 10)
	}
	return string(append(buf, ']'))
}

// String renders the node as its level vector.
func (n Node) String() string { return n.Key() }

// Lattice is the set of all level vectors bounded by per-attribute maxima.
type Lattice struct {
	max []int // per-attribute maximum level
}

// New builds a lattice from per-attribute maximum levels. Every maximum
// must be non-negative; a zero maximum pins that attribute at level 0.
func New(maxLevels []int) (*Lattice, error) {
	if len(maxLevels) == 0 {
		return nil, fmt.Errorf("lattice: no attributes")
	}
	for i, m := range maxLevels {
		if m < 0 {
			return nil, fmt.Errorf("lattice: attribute %d has negative max level %d", i, m)
		}
	}
	c := make([]int, len(maxLevels))
	copy(c, maxLevels)
	return &Lattice{max: c}, nil
}

// MaxLevels returns a copy of the per-attribute maxima.
func (l *Lattice) MaxLevels() []int {
	c := make([]int, len(l.max))
	copy(c, l.max)
	return c
}

// Bottom returns the all-zero node (the original table).
func (l *Lattice) Bottom() Node { return make(Node, len(l.max)) }

// Top returns the node with every attribute at its maximum level.
func (l *Lattice) Top() Node {
	t := make(Node, len(l.max))
	copy(t, l.max)
	return t
}

// Height returns the height of the top node, i.e. the number of strata
// minus one.
func (l *Lattice) Height() int { return Node(l.max).Height() }

// Size returns the total number of nodes, the product of (max_i + 1).
func (l *Lattice) Size() int {
	size := 1
	for _, m := range l.max {
		size *= m + 1
	}
	return size
}

// Contains reports whether the node is a valid member of the lattice.
func (l *Lattice) Contains(n Node) bool {
	if len(n) != len(l.max) {
		return false
	}
	for i, v := range n {
		if v < 0 || v > l.max[i] {
			return false
		}
	}
	return true
}

// Successors returns the nodes obtained by raising exactly one attribute by
// one level (the covering elements of n).
func (l *Lattice) Successors(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i] < l.max[i] {
			s := n.Clone()
			s[i]++
			out = append(out, s)
		}
	}
	return out
}

// Predecessors returns the nodes obtained by lowering exactly one attribute
// by one level (the elements covered by n).
func (l *Lattice) Predecessors(n Node) []Node {
	var out []Node
	for i := range n {
		if n[i] > 0 {
			p := n.Clone()
			p[i]--
			out = append(out, p)
		}
	}
	return out
}

// All enumerates every node in lexicographic order, calling fn for each.
// Enumeration stops early if fn returns false.
func (l *Lattice) All(fn func(Node) bool) {
	n := l.Bottom()
	for {
		if !fn(n.Clone()) {
			return
		}
		i := len(n) - 1
		for i >= 0 {
			n[i]++
			if n[i] <= l.max[i] {
				break
			}
			n[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// Nodes returns every node in lexicographic order. For large lattices
// prefer All to avoid materializing the slice.
func (l *Lattice) Nodes() []Node {
	out := make([]Node, 0, l.Size())
	l.All(func(n Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// AtHeight returns every node whose level sum equals h, in lexicographic
// order. Heights outside [0, Height()] return nil.
func (l *Lattice) AtHeight(h int) []Node {
	if h < 0 || h > l.Height() {
		return nil
	}
	var out []Node
	n := make(Node, len(l.max))
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(n)-1 {
			if remaining <= l.max[i] {
				n[i] = remaining
				out = append(out, n.Clone())
			}
			return
		}
		hi := remaining
		if hi > l.max[i] {
			hi = l.max[i]
		}
		for v := 0; v <= hi; v++ {
			n[i] = v
			rec(i+1, remaining-v)
		}
	}
	rec(0, h)
	return out
}

// Between enumerates the nodes n of the sublattice [bottom, top] (that is,
// bottom <= n <= top component-wise) whose height equals h, in
// lexicographic order. It is the stratum iterator the divide-and-conquer
// searches (OLA) recurse on; Between(l.Bottom(), l.Top(), h) coincides with
// l.AtHeight(h). Mismatched vectors or an unreachable height return nil.
func Between(bottom, top Node, h int) []Node {
	if len(bottom) != len(top) || !bottom.AtMost(top) {
		return nil
	}
	var out []Node
	n := bottom.Clone()
	var rec func(i, remaining int)
	rec = func(i, remaining int) {
		if i == len(n)-1 {
			v := bottom[i] + remaining
			if v <= top[i] {
				n[i] = v
				out = append(out, n.Clone())
			}
			return
		}
		max := top[i] - bottom[i]
		if max > remaining {
			max = remaining
		}
		for d := 0; d <= max; d++ {
			n[i] = bottom[i] + d
			rec(i+1, remaining-d)
		}
	}
	rec(0, h-bottom.Height())
	return out
}
