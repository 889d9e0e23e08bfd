package freqset

import (
	"encoding/binary"
	"fmt"
	"slices"
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
	s := New(tab, hs, nil)
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
// lattice node under both keyings: each (node, keying) is rolled up by at
// most one caller, which reports it — inside another node's Get when it is
// that node's hub — the others wait for it and report no work, every set
// is built exactly once, and every caller gets the same set.
func TestGetRollsUpOncePerNode(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := generator.Hierarchies()
	s := New(tab, hs, generator.Taxonomies())
	maxLevels, err := hs.MaxLevels(tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	nodes := lat.Nodes()
	const callers = 6
	type got struct {
		fs *Set
		w  Work
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
					fs, w, err := s.Get(nodes[ni], sens)
					if err != nil {
						t.Error(err)
						return
					}
					results[c][k][ni] = got{fs, w}
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	built := 0
	for k := range []bool{false, true} {
		for i, node := range nodes {
			rolled := 0
			for c := 0; c < callers; c++ {
				r := results[c][k][i]
				if r.fs != results[0][k][i].fs {
					t.Fatalf("keying %d node %v: callers got different sets", k, node)
				}
				if (r.w.Sets > 0) != (r.w.Read > 0) {
					t.Fatalf("keying %d node %v: built %d sets reading %d", k, node, r.w.Sets, r.w.Read)
				}
				if r.w.Sets > 0 {
					rolled++
				}
				built += r.w.Sets
			}
			if rolled > 1 {
				t.Fatalf("keying %d node %v rolled up %d times, want at most once", k, node, rolled)
			}
			if n := countRows(results[0][k][i].fs); n != tab.Len() {
				t.Fatalf("keying %d node %v: counts sum to %d, want %d", k, node, n, tab.Len())
			}
		}
	}
	if got, want := s.Len(), 2*len(nodes); got != want {
		t.Fatalf("store holds %d sets, want %d", got, want)
	}
	if built != s.Len() {
		t.Fatalf("callers report %d sets built, the store holds %d: want each built once", built, s.Len())
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
	s := New(tab, hs, tax)
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

// censusStore returns a fresh store over a census draw with the census
// hierarchies, and the draw's lattice.
func censusStore(t *testing.T, n int, hs hierarchy.Set) (*Store, *lattice.Lattice) {
	t.Helper()
	tab, err := generator.Generate(generator.Config{N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	maxLevels, err := hs.MaxLevels(tab.Schema)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	return New(tab, hs, generator.Taxonomies()), lat
}

// TestFarNodeReadsItsHub asks a fresh census store first for a node far
// above the bottom: its Get builds the node and its hub, reading the N
// rows, the base's tuples for the hub and the hub's for the node. A later
// Get of the hub finds it built and reports no work.
func TestFarNodeReadsItsHub(t *testing.T) {
	s, lat := censusStore(t, 2000, generator.Hierarchies())
	x := lat.Top()
	fs, w, err := s.Get(x, false)
	if err != nil {
		t.Fatal(err)
	}
	hub := s.hub(x)
	if hub == nil || slices.Equal(hub, x) {
		t.Fatalf("top node %v has no hub", x)
	}
	hs, hw, err := s.Get(hub, false)
	if err != nil {
		t.Fatal(err)
	}
	base := s.keyings[0].base
	if hs.Len() >= base.Len() {
		t.Fatalf("hub %v holds %d tuples, the base %d: the test needs a smaller hub", hub, hs.Len(), base.Len())
	}
	if want := (Work{Sets: 2, Read: s.t.Len() + base.Len() + hs.Len()}); w != want {
		t.Fatalf("node %v did %+v, want its set and its hub's, reading N + the base's %d + the hub's %d: %+v",
			x, w, base.Len(), hs.Len(), want)
	}
	if hw != (Work{}) {
		t.Fatalf("hub %v's own Get did %+v, want nothing", hub, hw)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d sets, want the node's and its hub's", s.Len())
	}
	if countRows(fs) != s.t.Len() || countRows(hs) != s.t.Len() {
		t.Fatal("counts do not sum to N")
	}
}

// TestNonNestedHubIsSkipped pins that a node whose hub does not nest into
// it — Age widths 3 then 5, so Age level 1 does not determine level 2 —
// reads the base and builds no hub.
func TestNonNestedHubIsSkipped(t *testing.T) {
	s, _ := censusStore(t, 2000, hierarchy.MustSet(
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 3, Origin: 0},
			hierarchy.IntervalLevel{Width: 5, Origin: 0},
		),
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		generator.EducationTaxonomy(),
		generator.MaritalTaxonomy(),
	))
	x := lattice.Node{2, 2, 1, 1}
	if _, w, err := s.Get(x, false); err != nil {
		t.Fatal(err)
	} else if want := (Work{Sets: 1, Read: s.t.Len() + s.keyings[0].base.Len()}); w != want {
		t.Fatalf("node %v did %+v, want its set alone, reading N + the base's: %+v", x, w, want)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d sets, want only the node's: no hub", s.Len())
	}
}

// TestFenceBoundsTheSources pins the source rule: a miss rolls up from its
// hub, the base, a set finished before the latest fence or a set the
// caller passes, never from another set finished since the fence, even a
// smaller one that could source it. None of the nodes but far has a hub:
// no other has a level above 1.
func TestFenceBoundsTheSources(t *testing.T) {
	s, _ := censusStore(t, 2000, generator.Hierarchies())
	read := func(node lattice.Node, from ...*Set) int {
		t.Helper()
		_, w, err := s.Get(node, false, from...)
		if err != nil {
			t.Fatal(err)
		}
		return w.Read
	}
	far, hub := lattice.Node{2, 2, 0, 0}, lattice.Node{1, 1, 0, 0}
	read(far)
	hs, _, err := s.Get(hub, false)
	if err != nil {
		t.Fatal(err)
	}
	base := s.keyings[0].base
	if hs.Len() >= base.Len() {
		t.Fatalf("hub %v holds %d tuples, the base %d: the test needs a smaller hub", hub, hs.Len(), base.Len())
	}
	if before := (lattice.Node{1, 1, 1, 0}); read(before) != base.Len() {
		t.Fatalf("node %v read hub %v's tuples, built since the last fence (there was none)", before, hub)
	}
	s.Fence()
	if after := (lattice.Node{1, 1, 0, 1}); read(after) != hs.Len() {
		t.Fatalf("node %v did not read hub %v's %d tuples after a fence", after, hub, hs.Len())
	}
	fine := lattice.Node{1, 0, 0, 0}
	read(fine)
	fs, _, err := s.Get(fine, false)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() >= base.Len() {
		t.Fatalf("node %v holds %d tuples, the base %d: the test needs a smaller set", fine, fs.Len(), base.Len())
	}
	if unoffered := (lattice.Node{1, 0, 1, 1}); read(unoffered) != base.Len() {
		t.Fatalf("node %v read node %v's tuples, finished since the fence and not passed", unoffered, fine)
	}
	if offered := (lattice.Node{1, 0, 0, 1}); read(offered, fs) != fs.Len() {
		t.Fatalf("node %v did not read the %d tuples of node %v, passed as a source", offered, fs.Len(), fine)
	}
}

// TestConcurrentSetsMatchBaseRollUp has callers ask one fresh store for
// every node under both keyings, in opposite and interleaved orders and
// fencing as they go, so hubs are built inside other nodes' Gets and
// sources come from every epoch: every node's set must equal, as a
// (tuple → count) multiset, a reference rolled straight from the base;
// each node is reported by at most one caller, and the sets built, summed
// over all callers, must equal the sets resident in both keyings, so
// every set is built exactly once.
func TestConcurrentSetsMatchBaseRollUp(t *testing.T) {
	s, lat := censusStore(t, 1500, generator.Hierarchies())
	nodes := lat.Nodes()
	const callers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	claimed := map[string]int{}
	built := 0
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, sens := range []bool{c%2 == 0, c%2 == 1} {
				for i := range nodes {
					// Coprime strides with the 324-node lattice
					// visit every node in a different order.
					ni := (i*[]int{1, 5, 7, 11}[c] + c*97) % len(nodes)
					if c%2 == 1 {
						ni = len(nodes) - 1 - ni
					}
					if i%7 == c {
						s.Fence()
					}
					_, w, err := s.Get(nodes[ni], sens)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if w.Sets > 0 {
						claimed[fmt.Sprint(sens, nodes[ni])]++
					}
					built += w.Sets
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := 2 * len(nodes); s.Len() != want || built != want {
		t.Fatalf("callers built %d sets, the store holds %d, want %d: each once", built, s.Len(), want)
	}
	for k, sens := range []bool{false, true} {
		base := s.keyings[k].base
		for _, node := range nodes {
			if n := claimed[fmt.Sprint(sens, node)]; n > 1 {
				t.Fatalf("keying %d node %v claimed %d times, want at most once", k, node, n)
			}
			fs, _, err := s.Get(node, sens)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(fs.Levels) != fmt.Sprint([]int(node)) {
				t.Fatalf("keying %d node %v: set at levels %v", k, node, fs.Levels)
			}
			got, want := multiset(fs, nil, nil), multiset(base, s.attrs, node)
			if len(got) != fs.Len() {
				t.Fatalf("keying %d node %v: %d tuples, %d distinct", k, node, fs.Len(), len(got))
			}
			if len(got) != len(want) {
				t.Fatalf("keying %d node %v: %d tuples, the base's roll-up %d", k, node, len(got), len(want))
			}
			for tuple, n := range want {
				if got[tuple] != n {
					t.Fatalf("keying %d node %v: tuple %q counts %d, the base's roll-up %d", k, node, tuple, got[tuple], n)
				}
			}
		}
	}
}

// multiset is the reference roll-up: fs's classes mapped to node's levels
// through the fragment maps (as they are when attrs is nil), as a
// (class codes, sensitive code) → count map under the sensitive keying and
// a class codes → count map otherwise.
func multiset(fs *Set, attrs []Attr, node lattice.Node) map[string]uint32 {
	out := map[string]uint32{}
	for c, n := range fs.Count {
		key := make([]byte, 0, 4*(len(fs.Codes)+1))
		for li, codes := range fs.Codes {
			code := codes[c]
			if attrs != nil {
				code = attrs[li].toLevel(fs.Levels[li], node[li])[code]
			}
			key = binary.LittleEndian.AppendUint32(key, code)
		}
		if fs.Off == nil {
			out[string(key)] += n
			continue
		}
		for r := fs.Off[c]; r < fs.Off[c+1]; r++ {
			out[string(binary.LittleEndian.AppendUint32(key, fs.Sens[r]))] += fs.Hist[r]
		}
	}
	return out
}

// TestSetsMatchRows checks every lattice node's set under both keyings
// against a reference counted straight from the rows — each row's ground
// codes mapped through Levels[l].Frag, keyed with its sensitive code under
// the sensitive keying — and checks the layout: classes are distinct,
// and under the sensitive keying histograms in compressed-row form whose
// codes are distinct within a class and whose nonzero counts sum to the
// class's size.
func TestSetsMatchRows(t *testing.T) {
	s, lat := censusStore(t, 1500, generator.Hierarchies())
	si, err := s.Sensitive()
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range lat.Nodes() {
		for _, sens := range []bool{false, true} {
			fs, _, err := s.Get(node, sens)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]uint32{}
			for i := 0; i < s.t.Len(); i++ {
				key := make([]byte, 0, 4*(len(node)+1))
				for li, l := range node {
					at := &s.attrs[li]
					key = binary.LittleEndian.AppendUint32(key, at.Levels[l].Frag[at.Ground[i]])
				}
				if sens {
					key = binary.LittleEndian.AppendUint32(key, si.Col.Code(i))
				}
				want[string(key)]++
			}
			got := multiset(fs, nil, nil)
			if len(got) != len(want) || len(got) != fs.Len() {
				t.Fatalf("sens %v node %v: %d keys from %d entries, the rows %d", sens, node, len(got), fs.Len(), len(want))
			}
			for key, n := range want {
				if got[key] != n {
					t.Fatalf("sens %v node %v: key %q counts %d, the rows %d", sens, node, key, got[key], n)
				}
			}
			classes := map[string]bool{}
			for c := range fs.Count {
				key := make([]byte, 0, 4*len(node))
				for _, codes := range fs.Codes {
					key = binary.LittleEndian.AppendUint32(key, codes[c])
				}
				classes[string(key)] = true
			}
			if len(classes) != len(fs.Count) {
				t.Fatalf("sens %v node %v: %d classes, %d distinct", sens, node, len(fs.Count), len(classes))
			}
			if !sens {
				if fs.Off != nil || fs.Sens != nil || fs.Hist != nil {
					t.Fatalf("node %v: plain set carries histograms", node)
				}
				continue
			}
			checkHistograms(t, fs, node)
		}
	}
}

// checkHistograms asserts the compressed-row layout of a sensitive set.
func checkHistograms(t *testing.T, fs *Set, node lattice.Node) {
	t.Helper()
	if len(fs.Off) != len(fs.Count)+1 || fs.Off[0] != 0 || int(fs.Off[len(fs.Count)]) != len(fs.Sens) || len(fs.Hist) != len(fs.Sens) {
		t.Fatalf("node %v: Off of length %d for %d classes and %d entries", node, len(fs.Off), len(fs.Count), len(fs.Sens))
	}
	for c, size := range fs.Count {
		lo, hi := fs.Off[c], fs.Off[c+1]
		if lo > hi {
			t.Fatalf("node %v class %d: Off descends (%d > %d)", node, c, lo, hi)
		}
		seen := map[uint32]bool{}
		sum := uint32(0)
		for r := lo; r < hi; r++ {
			if seen[fs.Sens[r]] {
				t.Fatalf("node %v class %d: sensitive code %d twice", node, c, fs.Sens[r])
			}
			seen[fs.Sens[r]] = true
			if fs.Hist[r] == 0 {
				t.Fatalf("node %v class %d: zero count for sensitive code %d", node, c, fs.Sens[r])
			}
			sum += fs.Hist[r]
		}
		if sum != size {
			t.Fatalf("node %v class %d: histogram sums to %d, Count %d", node, c, sum, size)
		}
	}
}
