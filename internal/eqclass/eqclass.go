// Package eqclass partitions an anonymized microdata table into equivalence
// classes: maximal groups of tuples that agree on every quasi-identifier.
// Equivalence classes are the raw material of every privacy property vector
// in the paper — the class-size vector underlies k-anonymity (Figure 1) and
// the sensitive-value counts within a class underlie ℓ-diversity (§3).
package eqclass

import (
	"fmt"
	"sort"
	"strings"

	"microdata/internal/dataset"
)

// Partition groups the rows of one table by quasi-identifier signature.
type Partition struct {
	// Classes holds the row indices of each equivalence class. Classes are
	// ordered by first appearance of their signature in the table; row
	// indices within a class are increasing.
	Classes [][]int
	// ClassOf maps every row index to its class index in Classes.
	ClassOf []int
	// n is the table size.
	n int
}

// FromTable partitions the table over its schema's quasi-identifiers.
func FromTable(t *dataset.Table) (*Partition, error) {
	qi := t.Schema.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("eqclass: schema has no quasi-identifiers")
	}
	return FromColumns(t, qi)
}

// FromColumns partitions the table over an explicit set of column indices.
//
// The grouping runs vectorized: the table's dictionary-encoded columns
// supply per-column code vectors, and FromCodes combines them with
// radix/hash passes — no per-row signature strings. The result is
// element-identical to signing every row with WriteSignature and grouping
// via FromSignatures, which the cross-validation tests pin.
func FromColumns(t *dataset.Table, cols []int) (*Partition, error) {
	for _, j := range cols {
		if j < 0 || j >= t.Schema.Len() {
			return nil, fmt.Errorf("eqclass: column index %d out of range", j)
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("eqclass: no columns to partition on")
	}
	if t.Len() == 0 {
		return &Partition{ClassOf: []int{}, n: 0}, nil
	}
	vecs := make([][]uint32, len(cols))
	cards := make([]int, len(cols))
	for vi, j := range cols {
		col := t.ColumnVector(j)
		vecs[vi] = col.Codes()
		cards[vi] = col.Card()
	}
	return FromCodes(vecs, cards)
}

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
// of row i's column keys. It is the constructor behind package engine's
// signature-fragment evaluation: callers assemble signatures from
// precomputed per-level fragments instead of materializing a generalized
// table. Classes are ordered by first appearance, exactly as FromColumns
// orders them.
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

// FromGroups builds a partition directly from explicit row groups, used by
// local-recoding algorithms (Mondrian) that know their partition without a
// signature pass. Groups must cover 0..n-1 exactly once.
func FromGroups(n int, groups [][]int) (*Partition, error) {
	p := &Partition{
		Classes: make([][]int, len(groups)),
		ClassOf: make([]int, n),
		n:       n,
	}
	seen := make([]bool, n)
	for ci, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("eqclass: group %d is empty", ci)
		}
		rows := append([]int(nil), g...)
		sort.Ints(rows)
		for _, r := range rows {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("eqclass: row %d out of range [0,%d)", r, n)
			}
			if seen[r] {
				return nil, fmt.Errorf("eqclass: row %d appears in more than one group", r)
			}
			seen[r] = true
			p.ClassOf[r] = ci
		}
		p.Classes[ci] = rows
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("eqclass: row %d is not covered by any group", r)
		}
	}
	return p, nil
}

// N returns the number of rows partitioned.
func (p *Partition) N() int { return p.n }

// NumClasses returns the number of equivalence classes.
func (p *Partition) NumClasses() int { return len(p.Classes) }

// Size returns the size of the class containing row i.
func (p *Partition) Size(i int) int { return len(p.Classes[p.ClassOf[i]]) }

// MinSize returns the smallest class size — the k of k-anonymity. An empty
// partition has MinSize 0.
func (p *Partition) MinSize() int {
	if len(p.Classes) == 0 {
		return 0
	}
	min := len(p.Classes[0])
	for _, c := range p.Classes[1:] {
		if len(c) < min {
			min = len(c)
		}
	}
	return min
}

// MaxSize returns the largest class size.
func (p *Partition) MaxSize() int {
	max := 0
	for _, c := range p.Classes {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// Sizes returns the per-class sizes in class order.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.Classes))
	for i, c := range p.Classes {
		out[i] = len(c)
	}
	return out
}

// SizeVector returns the paper's equivalence-class-size property vector:
// element i is the size of the class containing tuple i. For T3a this is
// (3,3,3,3,4,4,4,3,3,4).
func (p *Partition) SizeVector() []float64 {
	out := make([]float64, p.n)
	for i := range out {
		out[i] = float64(p.Size(i))
	}
	return out
}

// ValueCounts tallies, per class, how many times each sensitive value (by
// Key) occurs among the class's rows of the given column.
func (p *Partition) ValueCounts(col []dataset.Value) ([]map[string]int, error) {
	if len(col) != p.n {
		return nil, fmt.Errorf("eqclass: column has %d values for %d rows", len(col), p.n)
	}
	out := make([]map[string]int, len(p.Classes))
	for ci, rows := range p.Classes {
		m := make(map[string]int, len(rows))
		for _, r := range rows {
			m[col[r].Key()]++
		}
		out[ci] = m
	}
	return out, nil
}

// SensitiveCountVector returns the paper's §3 ℓ-diversity property vector:
// element i is the number of times tuple i's sensitive value appears in
// tuple i's equivalence class. For T3a with Marital Status sensitive this
// is (2,2,1,2,2,1,2,1,2,1).
func (p *Partition) SensitiveCountVector(col []dataset.Value) ([]float64, error) {
	counts, err := p.ValueCounts(col)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.n)
	for i := range out {
		out[i] = float64(counts[p.ClassOf[i]][col[i].Key()])
	}
	return out, nil
}
