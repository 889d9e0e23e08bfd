package lattice

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNodeBasics(t *testing.T) {
	n := Node{1, 2, 0}
	if n.Height() != 3 {
		t.Errorf("Height = %d", n.Height())
	}
	c := n.Clone()
	c[0] = 9
	if n[0] != 1 {
		t.Error("Clone shares storage")
	}
	if !n.AtMost(Node{1, 2, 0}) || !n.AtMost(Node{2, 2, 1}) || n.AtMost(Node{0, 2, 0}) || n.AtMost(Node{1, 2}) {
		t.Error("AtMost misbehaves")
	}
	if n.Key() != "[1 2 0]" || n.String() != "[1 2 0]" {
		t.Errorf("Key/String = %q/%q", n.Key(), n.String())
	}
}

// TestNodeKeyMatchesSprint pins Key and String to fmt's rendering of the
// level vector, the form packs record and Incognito sorts by.
func TestNodeKeyMatchesSprint(t *testing.T) {
	check := func(n Node) {
		t.Helper()
		want := fmt.Sprint([]int(n))
		if n.Key() != want || n.String() != want {
			t.Errorf("Key/String of %v = %q/%q, want %q", []int(n), n.Key(), n.String(), want)
		}
	}
	Must([]int{4, 2, 11, 0, 3}).All(func(n Node) bool {
		check(n)
		return true
	})
	check(nil)
	check(Node{})
	check(Node{10, 123456789, 0, 7})
	check(Node{-1, 3, -42, math.MinInt, math.MaxInt})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty lattice should fail")
	}
	if _, err := New([]int{1, -1}); err == nil {
		t.Error("negative max should fail")
	}
	l := Must([]int{5, 4})
	if got := len(l.MaxLevels()); got != 2 {
		t.Errorf("dimensions = %d", got)
	}
}

// Must is New that panics on error, the fixture constructor of these tests.
func Must(maxLevels []int) *Lattice {
	l, err := New(maxLevels)
	if err != nil {
		panic(err)
	}
	return l
}

func TestMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Must(nil)
}

func TestBoundsAndSize(t *testing.T) {
	// The paper's running-example lattice: zip 0..5, age 0..4, giving 30 nodes.
	l := Must([]int{5, 4})
	if !slices.Equal(l.Bottom(), Node{0, 0}) {
		t.Errorf("Bottom = %v", l.Bottom())
	}
	if !slices.Equal(l.Top(), Node{5, 4}) {
		t.Errorf("Top = %v", l.Top())
	}
	if l.Height() != 9 {
		t.Errorf("Height = %d", l.Height())
	}
	if l.Size() != 30 {
		t.Errorf("Size = %d", l.Size())
	}
	ml := l.MaxLevels()
	ml[0] = 99
	if l.Top()[0] != 5 {
		t.Error("MaxLevels leaks internal storage")
	}
}

func TestContains(t *testing.T) {
	l := Must([]int{2, 3})
	cases := []struct {
		n    Node
		want bool
	}{
		{Node{0, 0}, true},
		{Node{2, 3}, true},
		{Node{3, 0}, false},
		{Node{0, 4}, false},
		{Node{-1, 0}, false},
		{Node{1}, false},
		{Node{1, 1, 1}, false},
	}
	for _, c := range cases {
		if got := l.Contains(c.n); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	l := Must([]int{2, 2})
	succ := l.Successors(Node{1, 2})
	if len(succ) != 1 || !slices.Equal(succ[0], Node{2, 2}) {
		t.Errorf("Successors(1,2) = %v", succ)
	}
	if got := l.Successors(l.Top()); len(got) != 0 {
		t.Errorf("Successors(top) = %v", got)
	}
	pred := l.Predecessors(Node{1, 0})
	if len(pred) != 1 || !slices.Equal(pred[0], Node{0, 0}) {
		t.Errorf("Predecessors(1,0) = %v", pred)
	}
	if got := l.Predecessors(l.Bottom()); len(got) != 0 {
		t.Errorf("Predecessors(bottom) = %v", got)
	}
}

func TestAllAndNodes(t *testing.T) {
	l := Must([]int{1, 2})
	nodes := l.Nodes()
	if len(nodes) != l.Size() {
		t.Fatalf("Nodes returned %d, Size = %d", len(nodes), l.Size())
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if !l.Contains(n) {
			t.Errorf("invalid node %v", n)
		}
		if seen[n.Key()] {
			t.Errorf("duplicate node %v", n)
		}
		seen[n.Key()] = true
	}
	// Early stop.
	count := 0
	l.All(func(Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d nodes", count)
	}
}

func TestAllReturnsIndependentNodes(t *testing.T) {
	l := Must([]int{1, 1})
	var grabbed []Node
	l.All(func(n Node) bool {
		grabbed = append(grabbed, n)
		return true
	})
	keys := map[string]bool{}
	for _, n := range grabbed {
		keys[n.Key()] = true
	}
	if len(keys) != 4 {
		t.Errorf("All handed out aliased nodes: %v", grabbed)
	}
}

func TestAtHeight(t *testing.T) {
	l := Must([]int{2, 2})
	cases := map[int]int{0: 1, 1: 2, 2: 3, 3: 2, 4: 1, 5: 0, -1: 0}
	for h, want := range cases {
		nodes := l.AtHeight(h)
		if len(nodes) != want {
			t.Errorf("AtHeight(%d) returned %d nodes, want %d", h, len(nodes), want)
		}
		for _, n := range nodes {
			if n.Height() != h {
				t.Errorf("AtHeight(%d) returned node %v with height %d", h, n, n.Height())
			}
			if !l.Contains(n) {
				t.Errorf("AtHeight(%d) returned invalid node %v", h, n)
			}
		}
	}
}

func TestAtHeightCoversAllNodes(t *testing.T) {
	l := Must([]int{3, 2, 1})
	total := 0
	for h := 0; h <= l.Height(); h++ {
		total += len(l.AtHeight(h))
	}
	if total != l.Size() {
		t.Errorf("strata cover %d nodes, Size = %d", total, l.Size())
	}
}

func TestPartialOrderLawsQuick(t *testing.T) {
	l := Must([]int{3, 3, 3})
	nodes := l.Nodes()
	pick := func(i uint16) Node { return nodes[int(i)%len(nodes)] }
	// Reflexivity, antisymmetry, transitivity of AtMost.
	f := func(i, j, k uint16) bool {
		a, b, c := pick(i), pick(j), pick(k)
		if !a.AtMost(a) {
			return false
		}
		if a.AtMost(b) && b.AtMost(a) && !slices.Equal(a, b) {
			return false
		}
		if a.AtMost(b) && b.AtMost(c) && !a.AtMost(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestSuccessorRaisesHeightByOneQuick(t *testing.T) {
	l := Must([]int{4, 3, 2})
	nodes := l.Nodes()
	f := func(i uint16) bool {
		n := nodes[int(i)%len(nodes)]
		for _, s := range l.Successors(n) {
			if s.Height() != n.Height()+1 || !n.AtMost(s) || !l.Contains(s) {
				return false
			}
		}
		for _, p := range l.Predecessors(n) {
			if p.Height() != n.Height()-1 || !p.AtMost(n) || !l.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
