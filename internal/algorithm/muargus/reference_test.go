package muargus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// refGroup is one cell of one combination's frequency table in the
// reference: the rows sharing a value combination, and how many of them
// are not yet suppressed.
type refGroup struct {
	rows  []int
	alive int
}

// referenceAnonymize is the map-keyed reference for AnonymizeContext: each
// combination's table keys rows by their packed fragment ids as a string,
// each row lists its cells as pointers, and every fixpoint round rebuilds
// its seen and queued sets. It returns the release's levels, suppressed
// rows and table.
func referenceAnonymize(t *dataset.Table, cfg algorithm.Config) (lattice.Node, []int, *dataset.Table, error) {
	eng, err := engine.New(t, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	order := min(maxOrder, eng.NumQI())
	maxLevels := eng.Lattice().MaxLevels()
	combos := combinations(eng.NumQI(), order)
	node := make(lattice.Node, eng.NumQI())
	budget := eng.Budget()
	n := t.Len()
	for {
		frags := make([][]uint32, eng.NumQI())
		for li := range frags {
			if frags[li], err = eng.FragmentIDs(li, node[li]); err != nil {
				return nil, nil, nil, err
			}
		}
		var groups []*refGroup
		comboGroups := make([][]*refGroup, len(combos))
		rowGroups := make([][]*refGroup, n)
		buf := make([]byte, 4*order)
		for ci, combo := range combos {
			index := make(map[string]*refGroup)
			for i := 0; i < n; i++ {
				for bi, li := range combo {
					binary.LittleEndian.PutUint32(buf[4*bi:], frags[li][i])
				}
				key := string(buf[:4*len(combo)])
				g := index[key]
				if g == nil {
					g = &refGroup{}
					index[key] = g
					groups = append(groups, g)
					comboGroups[ci] = append(comboGroups[ci], g)
				}
				g.rows = append(g.rows, i)
				rowGroups[i] = append(rowGroups[i], g)
			}
		}
		suppressed := make([]bool, n)
		nSuppressed := 0
		var work []*refGroup
		for _, g := range groups {
			g.alive = len(g.rows)
			if g.alive < cfg.K {
				work = append(work, g)
			}
		}
		for {
			var rare []int
			seen := make(map[int]bool)
			for _, g := range work {
				for _, r := range g.rows {
					if !suppressed[r] && !seen[r] {
						seen[r] = true
						rare = append(rare, r)
					}
				}
			}
			if len(rare) == 0 {
				anon, err := hierarchy.GeneralizeTable(t, cfg.Hierarchies, node)
				if err != nil {
					return nil, nil, nil, err
				}
				var all []int
				for r := 0; r < n; r++ {
					if suppressed[r] {
						all = append(all, r)
					}
				}
				if anon, err = hierarchy.SuppressRows(anon, all); err != nil {
					return nil, nil, nil, err
				}
				return node, all, anon, nil
			}
			if nSuppressed+len(rare) > budget {
				break
			}
			sort.Ints(rare)
			var next []*refGroup
			queued := make(map[*refGroup]bool)
			for _, r := range rare {
				suppressed[r] = true
				nSuppressed++
				for _, g := range rowGroups[r] {
					was := g.alive
					g.alive--
					if g.alive < cfg.K && was >= cfg.K && !queued[g] {
						queued[g] = true
						next = append(next, g)
					}
				}
			}
			work = next
		}
		scores := make([]int, eng.NumQI())
		for ci, combo := range combos {
			rare := 0
			for _, g := range comboGroups[ci] {
				if len(g.rows) < cfg.K {
					rare += len(g.rows)
				}
			}
			for _, li := range combo {
				scores[li] += rare
			}
		}
		best, bestScore := -1, -1
		for li := 0; li < eng.NumQI(); li++ {
			if node[li] >= maxLevels[li] {
				continue
			}
			if scores[li] > bestScore {
				best, bestScore = li, scores[li]
			}
		}
		if best < 0 {
			return nil, nil, nil, fmt.Errorf("mu-argus: rare combinations remain at full generalization (budget %d)", budget)
		}
		node[best]++
	}
}

// TestTablesMatchReference pins the group-code tables and the flat
// fixpoint to the map-keyed reference: the same levels, suppressed rows
// and release bytes at k ∈ {2, 5, 10}, with suppression budgets that end
// in suppression or force generalization.
func TestTablesMatchReference(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	for _, seed := range []int64{1, 2} {
		for _, k := range []int{2, 5, 10} {
			orig, cfg, err := algtest.CensusConfig(n, k, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, supp := range []float64{0, 0.02, 0.1} {
				cfg.MaxSuppression = supp
				label := fmt.Sprintf("seed=%d k=%d supp=%v", seed, k, supp)
				wantLevels, wantSupp, wantTab, wantErr := referenceAnonymize(orig, cfg)
				r, err := New().Anonymize(orig, cfg)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !slices.Equal(r.Levels, wantLevels) {
					t.Fatalf("%s: levels %v, reference %v", label, r.Levels, wantLevels)
				}
				if fmt.Sprint(r.Suppressed) != fmt.Sprint(wantSupp) {
					t.Fatalf("%s: suppressed %v, reference %v", label, r.Suppressed, wantSupp)
				}
				var got, want bytes.Buffer
				if err := dataset.WriteCSV(&got, r.Table); err != nil {
					t.Fatal(err)
				}
				if err := dataset.WriteCSV(&want, wantTab); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: release CSV differs from the reference", label)
				}
			}
		}
	}
}

var muSink *algorithm.Result

func BenchmarkMuArgus(b *testing.B) {
	orig, cfg, err := algtest.CensusConfig(100_000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if muSink, err = New().Anonymize(orig, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
