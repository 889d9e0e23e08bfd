package engine

import (
	"context"
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// TestRollUpSourceRespectsNesting pins the source rule on an Age ladder
// whose widths (3 then 5) do not nest: a cached node at Age level 1 must
// never be the source of a node at Age level 2, which then rolls up from
// the base, while the nested census ladder reuses the finer node.
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
	fine, coarse := lattice.Node{1, 0, 0, 0}, lattice.Node{2, 0, 0, 0}

	eng, err := New(tab, nonNested)
	if err != nil {
		t.Fatal(err)
	}
	age := &eng.attrs[0]
	if age.levels[1].up[2] != nil {
		t.Fatal("width-3 buckets recorded as nested in width-5 buckets")
	}
	if age.levels[0].up[2] == nil || age.levels[1].up[3] == nil {
		t.Fatal("exact values and the star level must nest")
	}
	fineEv, err := eng.Evaluate(ctx, fine)
	if err != nil {
		t.Fatal(err)
	}
	if fineEv.fs.len() >= eng.base.len() {
		t.Fatalf("fine node has %d tuples, base %d: the test needs a smaller cached set", fineEv.fs.len(), eng.base.len())
	}
	if src := eng.source(coarse); src != eng.base {
		t.Fatalf("node %v rolls up from a set at levels %v, want the base", coarse, src.levels)
	}

	eng, err = New(tab, nested)
	if err != nil {
		t.Fatal(err)
	}
	fineEv, err = eng.Evaluate(ctx, fine)
	if err != nil {
		t.Fatal(err)
	}
	if src := eng.source(coarse); src != fineEv.fs {
		t.Fatalf("node %v rolls up from a set at levels %v, want the cached %v", coarse, src.levels, fine)
	}
}
