package engine

import (
	"context"
	"encoding/binary"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
)

// TestVerdictMatchesViolatingClassesPerClass requires the engine's
// verdict on a node's frequency set to flag exactly the classes
// algorithm.ViolatingClasses flags on the node's row partition, class by
// class, under each histogram constraint. Package mondrian pins its
// region check to ViolatingClasses the same way.
func TestVerdictMatchesViolatingClassesPerClass(t *testing.T) {
	tab, base, err := algtest.CensusConfig(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*algorithm.Config){
		"distinct-l":    func(c *algorithm.Config) { c.MinLDiversity = 2 },
		"entropy-l":     func(c *algorithm.Config) { c.MinEntropyL = 1.5 },
		"recursive-c-l": func(c *algorithm.Config) { c.RecursiveC, c.RecursiveL = 2, 2 },
		"t-closeness":   func(c *algorithm.Config) { c.MaxTCloseness = 0.3 },
	} {
		cfg := base
		mut(&cfg)
		eng, err := New(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, node := range eng.Lattice().Nodes() {
			ev, err := eng.Evaluate(context.Background(), node)
			if err != nil {
				t.Fatal(err)
			}
			bad, _ := eng.verdict(ev.fs)
			p, err := ev.RowPartition()
			if err != nil {
				t.Fatal(err)
			}
			want, err := algorithm.ViolatingClasses(p, tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(bad) {
				t.Fatalf("%s node %v: %d set classes, %d row classes", name, node, len(bad), len(want))
			}
			// A set class is its codes at the set's levels; a row's
			// codes there are its ground codes mapped up.
			fs := ev.fs
			key := func(code func(li int) uint32) string {
				var b []byte
				for li := range fs.Codes {
					b = binary.LittleEndian.AppendUint32(b, code(li))
				}
				return string(b)
			}
			class := map[string]int{}
			for c := range fs.Count {
				class[key(func(li int) uint32 { return fs.Codes[li][c] })] = c
			}
			for ci, rows := range p.Classes {
				r := rows[0]
				c, ok := class[key(func(li int) uint32 {
					at := &eng.attrs[li]
					if l := fs.Levels[li]; l >= 0 {
						return at.Levels[l].Frag[at.Ground[r]]
					}
					return at.Ground[r]
				})]
				if !ok {
					t.Fatalf("%s node %v: row %d's class is not in the set", name, node, r)
				}
				if bad[c] != want[ci] {
					t.Fatalf("%s node %v class of row %d: verdict %v, ViolatingClasses %v", name, node, r, bad[c], want[ci])
				}
				if want[ci] && len(rows) >= cfg.K {
					flagged++
				}
			}
		}
		if flagged == 0 {
			t.Errorf("%s: no class of k rows violated the constraint; the case checks nothing", name)
		}
	}
}
