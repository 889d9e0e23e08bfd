package engine

import (
	"context"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// TestRollUpSourceRespectsNesting pins the source rule, read off the
// tuples each roll-up scans, on an Age ladder whose widths (3 then 5) do
// not nest: a cached node at Age level 1 must never be the source of a
// node at Age level 2, which then rolls up from the base, while the nested
// census ladder reuses the finer node.
func TestRollUpSourceRespectsNesting(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(200, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	nested := cfg
	nonNested := cfg
	nonNested.Hierarchies = hierarchy.MustSet(
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 3, Origin: 0},
			hierarchy.IntervalLevel{Width: 5, Origin: 0},
		),
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		generator.EducationTaxonomy(),
		generator.MaritalTaxonomy(),
	)
	ctx := context.Background()
	bottom, fine, coarse := lattice.Node{0, 0, 0, 0}, lattice.Node{1, 0, 0, 0}, lattice.Node{2, 0, 0, 0}
	// scan evaluates a node and returns the rows and tuples its roll-up read.
	scan := func(eng *Engine, node lattice.Node) int64 {
		t.Helper()
		before := eng.Stats().RowsScanned
		if _, err := eng.Evaluate(ctx, node); err != nil {
			t.Fatal(err)
		}
		return eng.Stats().RowsScanned - before
	}
	// tuples is the size of a k-only node's frequency set: one tuple per
	// class.
	tuples := func(eng *Engine, node lattice.Node) int64 {
		t.Helper()
		ev, err := eng.Evaluate(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := ev.ClassSizes()
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(sizes))
	}

	for _, tc := range []struct {
		name   string
		cfg    algorithm.Config
		nested bool
	}{{"non-nested", nonNested, false}, {"nested", nested, true}} {
		eng, err := New(tab, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The bottom node's set is the base: building it reads the N rows,
		// rolling the bottom node up from it reads its tuples.
		base := scan(eng, bottom) - int64(tab.Len())
		if got := scan(eng, fine); got != base {
			t.Fatalf("%s: node %v read %d tuples, want the base's %d", tc.name, fine, got, base)
		}
		fineLen := tuples(eng, fine)
		if fineLen >= base {
			t.Fatalf("%s: fine node has %d tuples, base %d: the test needs a smaller cached set", tc.name, fineLen, base)
		}
		want := base
		if tc.nested {
			want = fineLen
		}
		if got := scan(eng, coarse); got != want {
			t.Fatalf("%s: node %v read %d tuples, want %d", tc.name, coarse, got, want)
		}
	}
}
