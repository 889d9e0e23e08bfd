package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/generator"
	"microdata/internal/lattice"
)

// The tentpole benchmark: a full-lattice sweep (evaluate + cost for every
// node, as the exhaustive search does) on the census generator, direct
// ApplyNode/algtest.NodeCost pipeline vs. the engine. EXPERIMENTS.md records the
// reproduced numbers. The engine timings INCLUDE engine construction
// (fragment precomputation), so the speedup shown is end-to-end.

func BenchmarkFullLatticeSweep(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tab, err := generator.Generate(generator.Config{N: n, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		cfg := algorithm.Config{
			K:              5,
			Hierarchies:    generator.Hierarchies(),
			Taxonomies:     generator.Taxonomies(),
			MaxSuppression: 0.02,
			Metric:         algorithm.MetricLM,
		}
		ml, err := cfg.Hierarchies.MaxLevels(tab.Schema)
		if err != nil {
			b.Fatal(err)
		}
		lat, err := lattice.New(ml)
		if err != nil {
			b.Fatal(err)
		}
		nodes := lat.Nodes()
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			runtime.GC() // isolate from the previous sub-benchmark's garbage
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, node := range nodes {
					if _, err := algtest.NodeCost(tab, cfg, node); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) { sweepEngine(b, tab, cfg, nodes) })
	}
	// The diverse arm sweeps N=100k under the lattice-diverse benchmark
	// workload's constraints (DM, distinct ℓ=2, entropy ℓ=1.5): the
	// sensitive keying's base, roll-ups and verdicts at scale. CI runs it
	// once as a smoke.
	b.Run("diverse/n=100000", func(b *testing.B) {
		tab, err := generator.Generate(generator.Config{N: 100000, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		cfg := algorithm.Config{
			K:              5,
			Hierarchies:    generator.Hierarchies(),
			Taxonomies:     generator.Taxonomies(),
			MaxSuppression: 0.05,
			Metric:         algorithm.MetricDM,
			MinLDiversity:  2,
			MinEntropyL:    1.5,
		}
		ml, err := cfg.Hierarchies.MaxLevels(tab.Schema)
		if err != nil {
			b.Fatal(err)
		}
		lat, err := lattice.New(ml)
		if err != nil {
			b.Fatal(err)
		}
		sweepEngine(b, tab, cfg, lat.Nodes())
	})
}

// sweepEngine evaluates and prices every node on a fresh engine per
// iteration, engine construction included.
func sweepEngine(b *testing.B, tab *dataset.Table, cfg algorithm.Config, nodes []lattice.Node) {
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(tab, cfg)
		if err != nil {
			b.Fatal(err)
		}
		evs, err := eng.EvaluateAll(context.Background(), nodes)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range evs {
			if _, err := ev.Cost(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluateCached measures the memoized path: repeated evaluation
// of a hot node (what converged genetic populations pay per individual).
func BenchmarkEvaluateCached(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 1000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K:           5,
		Hierarchies: generator.Hierarchies(),
		Taxonomies:  generator.Taxonomies(),
		Metric:      algorithm.MetricLM,
	}
	eng, err := engine.New(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	node := eng.Lattice().Top()
	if _, err := eng.Evaluate(context.Background(), node); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(context.Background(), node); err != nil {
			b.Fatal(err)
		}
	}
}
