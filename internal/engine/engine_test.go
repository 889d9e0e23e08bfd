package engine_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/engine"
	"microdata/internal/freqset"
	"microdata/internal/lattice"
)

// TestEngineCacheCounts checks the memo's hit and miss counters; the
// LRU's eviction order is tested in package lru.
func TestEngineCacheCounts(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a := lattice.Node{0, 0}
	b := lattice.Node{1, 0}
	c := lattice.Node{0, 1}
	for _, n := range []lattice.Node{a, a, a} {
		if _, err := eng.Evaluate(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.CacheMisses != 1 || s.CacheHits != 2 || s.NodesEvaluated != 1 {
		t.Fatalf("after repeated evaluation: %+v", s)
	}
	for _, n := range []lattice.Node{b, c, a} {
		if _, err := eng.Evaluate(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	s = eng.Stats()
	if s.CacheMisses != 3 || s.CacheHits != 3 || s.NodesEvaluated != 3 {
		t.Fatalf("after b, c and a again: %+v", s)
	}
	// The base build scans the N rows once; each evaluation then scans the
	// tuples of its roll-up source, at most N of them.
	n := int64(tab.Len())
	if s.RowsScanned <= n || s.RowsScanned > n+s.NodesEvaluated*n {
		t.Fatalf("rows scanned %d outside (N, N + nodes x N] for N=%d, %d nodes", s.RowsScanned, n, s.NodesEvaluated)
	}
}

func TestEngineRejectsForeignNodes(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Evaluate(context.Background(), lattice.Node{99, 0}); err == nil {
		t.Error("node outside the lattice must be rejected")
	}
	if _, err := eng.Evaluate(context.Background(), lattice.Node{0}); err == nil {
		t.Error("node of wrong dimension must be rejected")
	}
}

func TestEngineFragmentHelpers(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumQI() != 2 {
		t.Fatalf("NumQI = %d, want 2", eng.NumQI())
	}
	// Per-row fragment ids must be as distinct as the generalized column.
	for li := 0; li < eng.NumQI(); li++ {
		for level := 0; level <= eng.Lattice().MaxLevels()[li]; level++ {
			ids, err := eng.FragmentIDs(li, level)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != tab.Len() {
				t.Fatalf("fragment ids cover %d rows, want %d", len(ids), tab.Len())
			}
			distinct := map[uint32]bool{}
			for _, id := range ids {
				distinct[id] = true
			}
			want, err := eng.DistinctAtLevel(li, level)
			if err != nil {
				t.Fatal(err)
			}
			if len(distinct) != want {
				t.Fatalf("attr %d level %d: %d distinct fragment ids, DistinctAtLevel says %d",
					li, level, len(distinct), want)
			}
		}
	}
	if _, err := eng.FragmentIDs(0, 99); err == nil {
		t.Error("out-of-range level must be rejected")
	}
	if _, err := eng.DistinctAtLevel(99, 0); err == nil {
		t.Error("out-of-range attribute must be rejected")
	}
}

func TestEvaluateAllAlignsWithInput(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := eng.Lattice().Nodes()
	evs, err := eng.EvaluateAll(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(nodes) {
		t.Fatalf("got %d evaluations for %d nodes", len(evs), len(nodes))
	}
	for i, ev := range evs {
		if ev == nil {
			t.Fatalf("evaluation %d missing", i)
		}
		if !slices.Equal(ev.Node, nodes[i]) {
			t.Fatalf("evaluation %d is for node %v, want %v", i, ev.Node, nodes[i])
		}
	}
	// A second pass is pure cache hits.
	before := eng.Stats().NodesEvaluated
	if _, err := eng.EvaluateAll(context.Background(), nodes); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().NodesEvaluated; after != before {
		t.Fatalf("re-sweep evaluated %d new nodes, want 0", after-before)
	}
}

// TestEvaluateAllSameAtAnyGOMAXPROCS pins the node-level fan-out: a sweep
// on one worker and each of five on four returns identical verdicts,
// violating row counts and cost bits, so every property vector is the
// same on any machine, and reads the same rows and entries, since each
// node's roll-up sources only from what the batch's nodes below it and
// the batches before built (or from its hub), whichever worker gets it
// first, and evaluates each distinct node once. It sweeps the whole
// lattice; a batch with gaps and repeats — the top, a middle node and the
// bottom, twice each, coarse first — whose nodes wait for batch nodes
// they do not cover directly, and whose repeats get their first copy's
// evaluation; and an empty batch. It runs under both keyings: k-only,
// and the lattice-diverse benchmark workload's DM with distinct ℓ=2 and
// entropy ℓ=1.5.
func TestEvaluateAllSameAtAnyGOMAXPROCS(t *testing.T) {
	tab, kOnly, err := algtest.CensusConfig(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	diverse := kOnly
	diverse.Metric = algorithm.MetricDM
	diverse.MinLDiversity = 2
	diverse.MinEntropyL = 1.5
	ref, err := engine.New(tab, kOnly)
	if err != nil {
		t.Fatal(err)
	}
	top, mid, bottom := ref.Lattice().Top(), lattice.Node{1, 1, 1, 1}, ref.Lattice().Bottom()
	batches := map[string]struct {
		nodes    []lattice.Node
		distinct int64
	}{
		"lattice": {ref.Lattice().Nodes(), int64(ref.Lattice().Size())},
		"sparse":  {[]lattice.Node{top, mid, top, bottom, mid, bottom}, 3},
		"empty":   {nil, 0},
	}
	for name, cfg := range map[string]algorithm.Config{"k-only": kOnly, "diverse": diverse} {
		for batch, bt := range batches {
			nodes := bt.nodes
			sweep := func(procs int) ([]*engine.Evaluation, int64) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				eng, err := engine.New(tab, cfg)
				if err != nil {
					t.Fatal(err)
				}
				evs, err := eng.EvaluateAll(context.Background(), nodes)
				if err != nil {
					t.Fatal(err)
				}
				if st := eng.Stats(); st.NodesEvaluated != bt.distinct || st.CacheMisses != bt.distinct || st.CacheHits != 0 {
					t.Fatalf("%s %s at GOMAXPROCS %d: %d evaluations, %d misses and %d hits for %d distinct nodes", name, batch, procs, st.NodesEvaluated, st.CacheMisses, st.CacheHits, bt.distinct)
				}
				return evs, eng.Stats().RowsScanned
			}
			want, wantRows := sweep(1)
			for run := 0; run < 5; run++ {
				got, rows := sweep(4)
				if rows != wantRows {
					t.Fatalf("%s %s run %d: %d rows scanned at GOMAXPROCS 4, %d at 1", name, batch, run, rows, wantRows)
				}
				for i := range want {
					w, g := want[i], got[i]
					if !slices.Equal(g.Node, nodes[i]) || !slices.Equal(w.Node, nodes[i]) {
						t.Fatalf("%s %s evaluation %d is for nodes %v and %v, want %v", name, batch, i, w.Node, g.Node, nodes[i])
					}
					if j := slices.IndexFunc(nodes, func(x lattice.Node) bool { return slices.Equal(x, nodes[i]) }); got[j] != g {
						t.Fatalf("%s %s: node %v has two evaluations, at %d and %d", name, batch, nodes[i], j, i)
					}
					if g.BadRows != w.BadRows || g.Satisfies != w.Satisfies {
						t.Fatalf("%s node %v: %d bad rows at GOMAXPROCS 4, %d at 1", name, w.Node, g.BadRows, w.BadRows)
					}
					wc, werr := w.Cost()
					gc, gerr := g.Cost()
					if (werr == nil) != (gerr == nil) || math.Float64bits(wc) != math.Float64bits(gc) {
						t.Fatalf("%s node %v: cost %v (%v) at GOMAXPROCS 4, %v (%v) at 1", name, w.Node, gc, gerr, wc, werr)
					}
				}
			}
		}
	}
}

func TestCostInfinityOverBudget(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3) // zero suppression budget
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eng.Evaluate(context.Background(), eng.Lattice().Bottom())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Satisfies {
		t.Fatal("raw paper table is not 3-anonymous; bottom node must violate")
	}
	c, err := ev.Cost()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(c, 1) {
		t.Fatalf("over-budget node cost = %v, want +Inf", c)
	}
}

func TestCanceledErrorShape(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(100, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate some partial work first, then cancel mid-search.
	nodes := eng.Lattice().Nodes()
	if _, err := eng.EvaluateAll(context.Background(), nodes[:3]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.EvaluateAll(ctx, nodes)
	if err == nil {
		t.Fatal("cancelled sweep must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	var canceled *engine.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("error %T is not *engine.Canceled", err)
	}
	if canceled.Stats.NodesEvaluated < 3 {
		t.Fatalf("partial stats lost: %+v", canceled.Stats)
	}
	// Single-node path reports the same shape.
	if _, err := eng.Evaluate(ctx, nodes[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate under cancelled ctx returned %v", err)
	}
}

// TestCostMonotoneAlongLatticeEdges is a metamorphic check on the census
// ladders: with K=1 and no suppression every node is admissible and
// nothing is suppressed, so generalizing one attribute one level can only
// raise each cell's loss and merge classes — LM and DM never decrease
// along a lattice edge, compared exactly.
func TestCostMonotoneAlongLatticeEdges(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(2000, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0
	for _, m := range []algorithm.Metric{algorithm.MetricLM, algorithm.MetricDM} {
		cfg.Metric = m
		eng, err := engine.New(tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		cost := func(n lattice.Node) float64 {
			ev, err := eng.Evaluate(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ev.Cost()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		for _, n := range eng.Lattice().Nodes() {
			c := cost(n)
			for _, s := range eng.Lattice().Successors(n) {
				if cs := cost(s); cs < c {
					t.Fatalf("%v: cost falls from %v at %v to %v at %v", m, c, n, cs, s)
				}
			}
		}
	}
}

// TestEngineRejectsForeignStore refuses a store built for another table,
// another hierarchy set or another taxonomy map — equal in content but not
// identical — instead of pricing nodes on the wrong frequency sets.
func TestEngineRejectsForeignStore(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, other, err := algtest.CensusConfig(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	own := cfg
	own.Store = freqset.New(tab, cfg.Hierarchies, cfg.Taxonomies)
	if _, err := engine.New(tab, own); err != nil {
		t.Fatalf("store of the configuration's own scope rejected: %v", err)
	}
	for name, store := range map[string]*freqset.Store{
		"table":       freqset.New(twin, cfg.Hierarchies, cfg.Taxonomies),
		"hierarchies": freqset.New(tab, other.Hierarchies, cfg.Taxonomies),
		"taxonomies":  freqset.New(tab, cfg.Hierarchies, other.Taxonomies),
	} {
		foreign := cfg
		foreign.Store = store
		if _, err := engine.New(tab, foreign); err == nil {
			t.Errorf("engine accepted a store built for another %s", name)
		}
	}
}
