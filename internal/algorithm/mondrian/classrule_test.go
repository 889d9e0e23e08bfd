package mondrian

import (
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/lattice"
)

// TestRegionCheckMatchesViolatingClasses requires the partitioner's check
// of a candidate region to accept exactly the classes
// algorithm.ViolatingClasses passes, class by class, on the classes of
// every full-domain generalization of a census table, under each
// histogram constraint. Package engine pins its verdict to
// ViolatingClasses the same way.
func TestRegionCheckMatchesViolatingClasses(t *testing.T) {
	tab, base, err := algtest.CensusConfig(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	maxLevels, err := base.Hierarchies.MaxLevels(tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(maxLevels)
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
		p, err := New().newPartitioner(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, node := range lat.Nodes() {
			_, part, _, err := algorithm.ApplyNode(tab, cfg, node)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := algorithm.ViolatingClasses(part, tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ci, rows := range part.Classes {
				if p.valid(rows) == bad[ci] {
					t.Fatalf("%s node %v class %d: region check %v, ViolatingClasses flags %v", name, node, ci, p.valid(rows), bad[ci])
				}
				if bad[ci] && len(rows) >= cfg.K {
					flagged++
				}
			}
		}
		if flagged == 0 {
			t.Errorf("%s: no class of k rows violated the constraint; the case checks nothing", name)
		}
	}
}
