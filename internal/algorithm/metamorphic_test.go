package algorithm_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/lattice"
)

// TestSearchesInvariantUnderRowPermutation is a metamorphic check that
// needs no recorded answer: a release is a function of the table as a
// multiset of rows, so shuffling the rows must leave every lattice search
// on the same node, and the engine must price that node with the same
// bits (LM is an exact count-weighted sum, not a row-order float sum).
func TestSearchesInvariantUnderRowPermutation(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(10000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(tab.Schema)
	row := make([]dataset.Value, tab.Schema.Len())
	for _, i := range rand.New(rand.NewSource(17)).Perm(tab.Len()) {
		for j := range row {
			row[j] = tab.At(i, j)
		}
		if err := pc.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	perm := pc.Table()
	cost := func(tb *dataset.Table, r *algorithm.Result) float64 {
		eng, err := engine.New(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := eng.Evaluate(context.Background(), r.Levels)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ev.Cost()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, alg := range []algorithm.Algorithm{optimal.New(), ola.New(), samarati.New(), incognito.New()} {
		orig, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		shuf, err := alg.Anonymize(perm, cfg)
		if err != nil {
			t.Fatalf("%s on permuted rows: %v", alg.Name(), err)
		}
		if !slices.Equal(orig.Levels, shuf.Levels) {
			t.Fatalf("%s: node %v, %v after permuting the rows", alg.Name(), orig.Levels, shuf.Levels)
		}
		if a, b := cost(tab, orig), cost(perm, shuf); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: node %v costs %v, %v after permuting the rows", alg.Name(), orig.Levels, a, b)
		}
	}
}

// TestChosenNodeSatisfiesPastVerdictFlip holds the pruning searches to a
// plain rule where monotonicity is no theorem: under a suppression budget
// and t-closeness a satisfying node can have a successor that does not, yet
// each search must still return a node whose own verdict satisfies and
// whose release passes SatisfiesConstraints. The fixture is such a flip:
// [2 3 2 2] satisfies and its successor [3 3 2 2] does not.
func TestChosenNodeSatisfiesPastVerdictFlip(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(2000, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0.1
	cfg.MaxTCloseness = 0.3
	ctx := context.Background()
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		node lattice.Node
		bad  int
		ok   bool
	}{
		{lattice.Node{2, 3, 2, 2}, 191, true},
		{lattice.Node{3, 3, 2, 2}, 342, false},
	} {
		ev, err := eng.Evaluate(ctx, c.node)
		if err != nil {
			t.Fatal(err)
		}
		if ev.BadRows != c.bad || ev.Satisfies != c.ok {
			t.Fatalf("node %v: %d bad rows, satisfies %v; the fixture needs %d and %v (budget %d)",
				c.node, ev.BadRows, ev.Satisfies, c.bad, c.ok, cfg.Budget(tab.Len()))
		}
	}
	for _, alg := range []algorithm.Algorithm{optimal.New(), ola.New(), samarati.New(), incognito.New()} {
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		ev, err := eng.Evaluate(ctx, r.Levels)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Satisfies {
			t.Errorf("%s chose %v, whose verdict fails (%d bad rows)", alg.Name(), r.Levels, ev.BadRows)
		}
		if ok, err := algorithm.SatisfiesConstraints(r.Partition, r.Table, cfg); err != nil || !ok {
			t.Errorf("%s: release at %v fails the constraints: %v, %v", alg.Name(), r.Levels, ok, err)
		}
	}
}
