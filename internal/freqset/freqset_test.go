package freqset

import (
	"sync"
	"testing"

	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// TestNestingMaps pins the nesting table on an Age ladder whose widths (3
// then 5) do not nest: the width-3 buckets must not be recorded as lying
// inside the width-5 ones, while exact values and the star level nest in
// every coarser rung.
func TestNestingMaps(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.MustSet(
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 3, Origin: 0},
			hierarchy.IntervalLevel{Width: 5, Origin: 0},
		),
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		generator.EducationTaxonomy(),
		generator.MaritalTaxonomy(),
	)
	s := New(tab, hs, nil, 0)
	if err := s.Prepare(); err != nil {
		t.Fatal(err)
	}
	age := &s.Attrs()[0]
	if age.Levels[1].up[2] != nil {
		t.Fatal("width-3 buckets recorded as nested in width-5 buckets")
	}
	if age.Levels[0].up[2] == nil || age.Levels[1].up[3] == nil {
		t.Fatal("exact values and the star level must nest")
	}
}

// TestGetRollsUpOncePerNode has many goroutines ask one store for every
// lattice node under both keyings: each (node, keying) is rolled up by
// exactly one caller, the others wait for it and read nothing, and every
// caller gets the same set.
func TestGetRollsUpOncePerNode(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := generator.Hierarchies()
	s := New(tab, hs, generator.Taxonomies(), 0)
	maxLevels, err := hs.MaxLevels(tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	nodes := lattice.Must(maxLevels).Nodes()
	const callers = 6
	type got struct {
		fs      *Set
		scanned int
	}
	results := make([][2][]got, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k, sens := range []bool{false, true} {
				results[c][k] = make([]got, len(nodes))
				for i := range nodes {
					// Callers walk the lattice from opposite ends.
					ni := i
					if c%2 == 1 {
						ni = len(nodes) - 1 - i
					}
					fs, scanned, err := s.Get(nodes[ni], sens)
					if err != nil {
						t.Error(err)
						return
					}
					results[c][k][ni] = got{fs, scanned}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := range []bool{false, true} {
		for i, node := range nodes {
			rolled := 0
			for c := 0; c < callers; c++ {
				r := results[c][k][i]
				if r.fs != results[0][k][i].fs {
					t.Fatalf("keying %d node %v: callers got different sets", k, node)
				}
				if r.scanned > 0 {
					rolled++
				}
			}
			if rolled != 1 {
				t.Fatalf("keying %d node %v rolled up %d times, want once", k, node, rolled)
			}
			if n := countRows(results[0][k][i].fs); n != tab.Len() {
				t.Fatalf("keying %d node %v: counts sum to %d, want %d", k, node, n, tab.Len())
			}
		}
	}
	if got, want := s.Len(), 2*len(nodes); got != want {
		t.Fatalf("store holds %d sets, want %d", got, want)
	}
}

func countRows(fs *Set) int {
	n := 0
	for _, c := range fs.Count {
		n += int(c)
	}
	return n
}

// TestCheckRequiresIdentity rejects a store for any table, hierarchy value
// or taxonomy pointer other than the ones it was built for, even when
// they are equal in content.
func TestCheckRequiresIdentity(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := generator.Generate(generator.Config{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs, tax := generator.Hierarchies(), generator.Taxonomies()
	s := New(tab, hs, tax, 0)
	if err := s.Check(tab, hs, tax); err != nil {
		t.Fatalf("own scope rejected: %v", err)
	}
	for name, err := range map[string]error{
		"table":      s.Check(twin, hs, tax),
		"hierarchy":  s.Check(tab, generator.Hierarchies(), tax),
		"taxonomies": s.Check(tab, hs, generator.Taxonomies()),
		"no taxa":    s.Check(tab, hs, nil),
	} {
		if err == nil {
			t.Errorf("store accepted another %s", name)
		}
	}
}
