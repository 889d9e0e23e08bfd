package incognito

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

func TestSubsetsOf(t *testing.T) {
	got := subsetsOf(4, 2)
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("subsetsOf(4,2) = %v", got)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("subsetsOf(4,2) = %v", got)
			}
		}
	}
	if got := subsetsOf(3, 3); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("subsetsOf(3,3) = %v", got)
	}
}

// The published two-phase sweep and the direct lattice sweep must identify
// the same set of full-domain k-anonymous nodes.
func TestSubsetSweepAgreesWithDirect(t *testing.T) {
	for _, seed := range []int64{71, 72} {
		tab, cfg, err := algtest.CensusConfig(200, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxSuppression = 0
		// Ground truth: brute-force every node.
		ml, err := cfg.Hierarchies.MaxLevels(tab.Schema)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice.New(ml)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[string]bool{}
		lat.All(func(n lattice.Node) bool {
			_, _, small, err := algorithm.ApplyNode(tab, cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(small) == 0 {
				truth[n.Key()] = true
			}
			return true
		})
		// Subset sweep.
		nodes, evaluated, err := subsetSweep(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != len(truth) {
			t.Fatalf("seed %d: subset sweep found %d nodes, truth has %d", seed, len(nodes), len(truth))
		}
		for _, n := range nodes {
			if !truth[n.Key()] {
				t.Fatalf("seed %d: subset sweep returned non-anonymous node %v", seed, n)
			}
		}
		if evaluated < 1 {
			t.Error("no evaluations counted")
		}
		// Minimal filtering agrees with the direct pruned sweep.
		minimal, _, err := New().MinimalNodes(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		filtered := minimalOf(nodes)
		if len(filtered) != len(minimal) {
			t.Fatalf("seed %d: minimalOf(subset sweep) has %d nodes, direct sweep %d",
				seed, len(filtered), len(minimal))
		}
		direct := map[string]bool{}
		for _, n := range minimal {
			direct[n.Key()] = true
		}
		for _, n := range filtered {
			if !direct[n.Key()] {
				t.Fatalf("seed %d: minimal sets differ at %v", seed, n)
			}
		}
	}
}

func TestSubsetSweepRejectsSuppressionAndConstraints(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(100, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0.05
	if _, _, err := subsetSweep(tab, cfg); err == nil {
		t.Error("suppression budget should be rejected")
	}
	cfg.MaxSuppression = 0
	cfg.MinLDiversity = 2
	if _, _, err := subsetSweep(tab, cfg); err == nil {
		t.Error("diversity constraints should be rejected")
	}
}

func TestMinimalOf(t *testing.T) {
	nodes := []lattice.Node{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {0, 3}}
	min := minimalOf(nodes)
	if len(min) != 2 {
		t.Fatalf("minimalOf = %v", min)
	}
	keys := map[string]bool{}
	for _, n := range min {
		keys[n.Key()] = true
	}
	if !keys["[1 1]"] || !keys["[0 3]"] {
		t.Errorf("minimalOf = %v", min)
	}
}

// subsetSweep runs the published Incognito's two-phase strategy: for each
// quasi-identifier subset of size i = 1..n, compute the set of subset
// lattice nodes whose generalization is k-anonymous over that subset
// alone; phase i+1's candidates are only the nodes whose every
// i-sized projection survived phase i (the subset property: a table that
// is k-anonymous over a set of attributes is k-anonymous over every
// subset). The survivors of phase n are exactly the full-domain
// k-anonymous nodes.
//
// It is the reference MinimalNodes' direct sweep of the full lattice is
// pinned against: the two must agree (TestSubsetSweepAgreesWithDirect).
//
// Suppression budgets break the subset property (a node may be rescued by
// suppressing different rows per subset), so subsetSweep requires
// cfg.MaxSuppression == 0 and no diversity constraints.
func subsetSweep(t *dataset.Table, cfg algorithm.Config) ([]lattice.Node, int, error) {
	if err := cfg.Validate(t); err != nil {
		return nil, 0, fmt.Errorf("incognito: %w", err)
	}
	if cfg.MaxSuppression != 0 {
		return nil, 0, fmt.Errorf("incognito: subset sweep requires a zero suppression budget")
	}
	if cfg.MinLDiversity > 0 || cfg.MaxTCloseness > 0 || cfg.MinEntropyL > 0 || cfg.RecursiveC > 0 {
		return nil, 0, fmt.Errorf("incognito: subset sweep does not support diversity constraints")
	}
	qi := t.Schema.QuasiIdentifiers()
	maxLevels, err := cfg.Hierarchies.MaxLevels(t.Schema)
	if err != nil {
		return nil, 0, fmt.Errorf("incognito: %w", err)
	}
	n := len(qi)
	evaluated := 0

	// anonymousOverSubset checks k-anonymity of the table generalized at
	// the given levels, partitioned over ONLY the subset's columns.
	anonymousOverSubset := func(subset []int, levels []int) (bool, error) {
		evaluated++
		full := make(lattice.Node, n)
		for si, attr := range subset {
			full[attr] = levels[si]
		}
		anon, err := hierarchy.GeneralizeTable(t, cfg.Hierarchies, full)
		if err != nil {
			return false, err
		}
		cols := make([]int, len(subset))
		for si, attr := range subset {
			cols[si] = qi[attr]
		}
		p, err := eqclass.FromColumns(anon, cols)
		if err != nil {
			return false, err
		}
		return p.MinSize() >= cfg.K, nil
	}

	// survivors[key(subset)] = set of level-vector keys that passed.
	survivors := map[string]map[string][]int{}
	subsetKey := func(subset []int) string {
		parts := make([]string, len(subset))
		for i, a := range subset {
			parts[i] = fmt.Sprint(a)
		}
		return strings.Join(parts, ",")
	}
	levelsKey := func(levels []int) string { return fmt.Sprint(levels) }

	// Phase 1..n.
	var finalNodes []lattice.Node
	for size := 1; size <= n; size++ {
		for _, subset := range subsetsOf(n, size) {
			// Candidate nodes: the subset's lattice, pruned by (a) the
			// subset property against phase size-1 survivors and (b)
			// within-phase generalization monotonicity.
			maxs := make([]int, size)
			for si, attr := range subset {
				maxs[si] = maxLevels[attr]
			}
			lat, err := lattice.New(maxs)
			if err != nil {
				return nil, evaluated, fmt.Errorf("incognito: %w", err)
			}
			passed := map[string][]int{}
			// BFS by height with monotone propagation.
			known := map[string]bool{} // key -> satisfies
			for h := 0; h <= lat.Height(); h++ {
				for _, node := range lat.AtHeight(h) {
					key := levelsKey(node)
					// Monotone propagation from predecessors.
					inherited := false
					for _, p := range lat.Predecessors(node) {
						if known[levelsKey(p)] {
							inherited = true
							break
						}
					}
					if inherited {
						known[key] = true
						passed[key] = append([]int(nil), node...)
						continue
					}
					// Subset property: every (size-1)-projection must
					// have survived its phase.
					if size > 1 && !projectionsSurvive(subset, node, survivors, subsetKey, levelsKey) {
						continue
					}
					ok, err := anonymousOverSubset(subset, node)
					if err != nil {
						return nil, evaluated, fmt.Errorf("incognito: %w", err)
					}
					if ok {
						known[key] = true
						passed[key] = append([]int(nil), node...)
					}
				}
			}
			survivors[subsetKey(subset)] = passed
			if size == n {
				for _, levels := range passed {
					node := make(lattice.Node, n)
					copy(node, levels)
					finalNodes = append(finalNodes, node)
				}
			}
		}
	}
	sort.Slice(finalNodes, func(a, b int) bool { return finalNodes[a].Key() < finalNodes[b].Key() })
	return finalNodes, evaluated, nil
}

// projectionsSurvive checks the subset property for one candidate.
func projectionsSurvive(subset []int, levels []int, survivors map[string]map[string][]int,
	subsetKey func([]int) string, levelsKey func([]int) string) bool {
	for drop := range subset {
		sub := make([]int, 0, len(subset)-1)
		lv := make([]int, 0, len(subset)-1)
		for i := range subset {
			if i == drop {
				continue
			}
			sub = append(sub, subset[i])
			lv = append(lv, levels[i])
		}
		phase, ok := survivors[subsetKey(sub)]
		if !ok {
			return false
		}
		if _, ok := phase[levelsKey(lv)]; !ok {
			return false
		}
	}
	return true
}

// subsetsOf enumerates the size-k subsets of {0..n-1} in lexicographic
// order.
func subsetsOf(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// minimalOf filters a node set down to its minimal elements under the
// component-wise order.
func minimalOf(nodes []lattice.Node) []lattice.Node {
	var out []lattice.Node
	for i, n := range nodes {
		minimal := true
		for j, m := range nodes {
			if i != j && m.AtMost(n) && !slices.Equal(m, n) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, n)
		}
	}
	return out
}
