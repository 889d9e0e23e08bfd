package hierarchy

import (
	"fmt"

	"microdata/internal/dataset"
)

// Node is one node of a taxonomy tree. Leaves carry ground values; interior
// nodes carry generalized labels ("Married", "Not Married", ...).
type Node struct {
	Label    string
	Children []*Node
}

// N is a convenience constructor for taxonomy literals.
func N(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// Taxonomy generalizes categorical ground values through a tree. The level
// of a ground value counts steps toward the root: level 0 is the leaf
// itself, level MaxLevel is the root, rendered as the suppressed value.
// Trees may be uneven; a value whose leaf is shallower than the deepest leaf
// saturates at the root early (the root then still renders as "*" only at
// MaxLevel; below that it renders as the root's label).
type Taxonomy struct {
	attr     string
	root     *Node
	depth    int // depth of the deepest leaf; MaxLevel == depth
	parents  map[*Node]*Node
	leafOf   map[string]*Node // ground label -> leaf
	leafCnt  map[*Node]int    // node -> number of leaves beneath
	totalLvs int
}

// NewTaxonomy builds a taxonomy hierarchy for the named attribute from a
// tree literal. Leaf labels must be unique; they are the attribute's ground
// domain.
func NewTaxonomy(attr string, root *Node) (*Taxonomy, error) {
	if root == nil {
		return nil, fmt.Errorf("hierarchy: taxonomy for %q has nil root", attr)
	}
	t := &Taxonomy{
		attr:    attr,
		root:    root,
		parents: make(map[*Node]*Node),
		leafOf:  make(map[string]*Node),
		leafCnt: make(map[*Node]int),
	}
	var walk func(n *Node, depth int) (leaves int, err error)
	walk = func(n *Node, depth int) (int, error) {
		if len(n.Children) == 0 {
			if _, dup := t.leafOf[n.Label]; dup {
				return 0, fmt.Errorf("hierarchy: taxonomy for %q has duplicate leaf %q", attr, n.Label)
			}
			t.leafOf[n.Label] = n
			t.leafCnt[n] = 1
			if depth > t.depth {
				t.depth = depth
			}
			return 1, nil
		}
		total := 0
		for _, c := range n.Children {
			if c == nil {
				return 0, fmt.Errorf("hierarchy: taxonomy for %q has nil child under %q", attr, n.Label)
			}
			t.parents[c] = n
			cl, err := walk(c, depth+1)
			if err != nil {
				return 0, err
			}
			total += cl
		}
		t.leafCnt[n] = total
		return total, nil
	}
	total, err := walk(root, 0)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("hierarchy: taxonomy for %q has no leaves", attr)
	}
	t.totalLvs = total
	if t.depth == 0 {
		// A single-node tree still provides one suppression step.
		t.depth = 1
	}
	return t, nil
}

// MustTaxonomy is NewTaxonomy that panics on error, for fixtures.
func MustTaxonomy(attr string, root *Node) *Taxonomy {
	t, err := NewTaxonomy(attr, root)
	if err != nil {
		panic(err)
	}
	return t
}

// Attribute implements Hierarchy.
func (t *Taxonomy) Attribute() string { return t.attr }

// MaxLevel implements Hierarchy; it equals the depth of the deepest leaf.
func (t *Taxonomy) MaxLevel() int { return t.depth }

// node returns the ancestor of v's leaf after climbing the given number of
// levels, saturating at the root.
func (t *Taxonomy) node(v dataset.Value, level int) (*Node, error) {
	if v.Kind() != dataset.Str {
		return nil, fmt.Errorf("taxonomy %q: cannot generalize %v value", t.attr, v.Kind())
	}
	n, ok := t.leafOf[v.Text()]
	if !ok {
		return nil, fmt.Errorf("taxonomy %q: unknown value %q", t.attr, v.Text())
	}
	for i := 0; i < level && t.parents[n] != nil; i++ {
		n = t.parents[n]
	}
	return n, nil
}

// Generalize implements Hierarchy.
func (t *Taxonomy) Generalize(v dataset.Value, level int) (dataset.Value, error) {
	if err := checkLevel(level, t.depth); err != nil {
		return dataset.Value{}, fmt.Errorf("taxonomy %q: %w", t.attr, err)
	}
	if level == 0 {
		if v.Kind() != dataset.Str {
			return dataset.Value{}, fmt.Errorf("taxonomy %q: cannot generalize %v value", t.attr, v.Kind())
		}
		if _, ok := t.leafOf[v.Text()]; !ok {
			return dataset.Value{}, fmt.Errorf("taxonomy %q: unknown value %q", t.attr, v.Text())
		}
		return v, nil
	}
	if level == t.depth {
		// Validate the value even though the output is constant.
		if _, err := t.node(v, 0); err != nil {
			return dataset.Value{}, err
		}
		return dataset.StarVal(), nil
	}
	n, err := t.node(v, level)
	if err != nil {
		return dataset.Value{}, err
	}
	if n == t.root {
		return dataset.StarVal(), nil
	}
	if len(n.Children) == 0 {
		// Saturated at a leaf shallower than the requested level cannot
		// happen (level < depth climbs toward root), but a leaf-rooted
		// single-node tree reaches here; treat as suppression.
		return dataset.StrVal(n.Label), nil
	}
	return dataset.SetVal(n.Label), nil
}

// Loss implements Hierarchy using Iyengar's general loss metric for
// categorical attributes: (leaves(g) - 1) / (totalLeaves - 1).
func (t *Taxonomy) Loss(v dataset.Value, level int) (float64, error) {
	if err := checkLevel(level, t.depth); err != nil {
		return 0, fmt.Errorf("taxonomy %q: %w", t.attr, err)
	}
	if t.totalLvs == 1 {
		if level == t.depth {
			return 1, nil
		}
		return 0, nil
	}
	if level == t.depth {
		return 1, nil
	}
	n, err := t.node(v, level)
	if err != nil {
		return 0, err
	}
	return float64(t.leafCnt[n]-1) / float64(t.totalLvs-1), nil
}

// Leaves returns the ground domain (all leaf labels) in depth-first order.
func (t *Taxonomy) Leaves() []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if len(n.Children) == 0 {
			out = append(out, n.Label)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// LCA returns the label of the lowest common ancestor of the given ground
// values, and whether that ancestor is the root. Local-recoding algorithms
// (Mondrian) use it to generalize a region's categorical values minimally.
func (t *Taxonomy) LCA(grounds []string) (label string, isRoot bool, err error) {
	if len(grounds) == 0 {
		return "", false, fmt.Errorf("hierarchy: LCA of no values")
	}
	// Ancestor chain of the first value, leaf to root.
	first, ok := t.leafOf[grounds[0]]
	if !ok {
		return "", false, fmt.Errorf("hierarchy: taxonomy %q: unknown value %q", t.attr, grounds[0])
	}
	var chain []*Node
	depth := map[*Node]int{}
	for n := first; n != nil; n = t.parents[n] {
		depth[n] = len(chain)
		chain = append(chain, n)
	}
	lca := first
	for _, g := range grounds[1:] {
		leaf, ok := t.leafOf[g]
		if !ok {
			return "", false, fmt.Errorf("hierarchy: taxonomy %q: unknown value %q", t.attr, g)
		}
		// Climb from leaf until hitting the current LCA's chain at or
		// above the current LCA.
		n := leaf
		for {
			if d, onChain := depth[n]; onChain {
				if d > depth[lca] {
					lca = n
				}
				break
			}
			n = t.parents[n]
			if n == nil {
				lca = t.root
				break
			}
		}
	}
	return lca.Label, lca == t.root, nil
}

// CoveringLabels returns the labels of every node on the path from the
// ground value's leaf to the root — exactly the generalized labels g
// (other than the universal "*") for which CoversValue(g, ground) holds.
// It returns nil for ground values outside the taxonomy. Package attack
// uses it to resolve Set-cell candidates by hash lookup instead of
// walking the tree per anonymized row.
func (t *Taxonomy) CoveringLabels(ground string) []string {
	leaf, ok := t.leafOf[ground]
	if !ok {
		return nil
	}
	var out []string
	for n := leaf; n != nil; n = t.parents[n] {
		out = append(out, n.Label)
	}
	return out
}

// CoversValue reports whether the generalized label g (an interior node
// label, a leaf label, or "*") covers the ground value ground.
func (t *Taxonomy) CoversValue(g, ground string) bool {
	if g == "*" {
		return true
	}
	leaf, ok := t.leafOf[ground]
	if !ok {
		return false
	}
	for n := leaf; n != nil; n = t.parents[n] {
		if n.Label == g {
			return true
		}
	}
	return false
}
