package algorithm_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/dataset"
	"microdata/internal/engine"
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
		if !orig.Levels.Equal(shuf.Levels) {
			t.Fatalf("%s: node %v, %v after permuting the rows", alg.Name(), orig.Levels, shuf.Levels)
		}
		if a, b := cost(tab, orig), cost(perm, shuf); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: node %v costs %v, %v after permuting the rows", alg.Name(), orig.Levels, a, b)
		}
	}
}
