package algorithm_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/dataset"
	"microdata/internal/engine"
)

// TestAnonymizeContextCancellation pins the satellite requirement: a
// context cancelled mid-search makes a ContextAlgorithm return promptly
// with an error wrapping context.Canceled that still carries the partial
// engine counters.
func TestAnonymizeContextCancellation(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(150, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []algorithm.Algorithm{optimal.New(), samarati.New()} {
		_, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
		if err == nil {
			t.Fatalf("%s: cancelled search must fail", alg.Name())
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not wrap context.Canceled", alg.Name(), err)
		}
		var canceled *engine.Canceled
		if !errors.As(err, &canceled) {
			t.Fatalf("%s: error %T carries no partial engine stats", alg.Name(), err)
		}
	}
}

// TestAnonymizeContextCompletesUncancelled checks the context entry point
// returns the same result as the plain one when never cancelled.
func TestAnonymizeContextCompletesUncancelled(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	plain, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := algorithm.AnonymizeContext(context.Background(), optimal.New(), tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plain.Levels, viaCtx.Levels) {
		t.Fatalf("context path picked %v, plain path %v", viaCtx.Levels, plain.Levels)
	}
}

// fallbackAlg wraps an algorithm while hiding its context entry point, so
// the AnonymizeContext fallback path stays exercised now that every shipped
// algorithm implements ContextAlgorithm.
type fallbackAlg struct{ inner algorithm.Algorithm }

func (f fallbackAlg) Name() string { return f.inner.Name() }
func (f fallbackAlg) Anonymize(tab *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return f.inner.Anonymize(tab, cfg)
}

// TestAnonymizeContextFallback: algorithms without a context entry point
// still run to completion under a live context, and refuse to start under
// a cancelled one.
func TestAnonymizeContextFallback(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(60, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	alg := fallbackAlg{mondrian.New()}
	if _, ok := interface{}(alg).(algorithm.ContextAlgorithm); ok {
		t.Fatal("test premise broken: fallbackAlg must not implement ContextAlgorithm")
	}
	if _, err := algorithm.AnonymizeContext(context.Background(), alg, tab, cfg); err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fallback returned %v, want context.Canceled wrap", err)
	}
}

// TestMondrianContextCancellation: mondrian's recursive partitioning (a
// local recoding with no engine) also honours cancellation now that it
// implements ContextAlgorithm.
func TestMondrianContextCancellation(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(60, 3, 22)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mondrian.New().AnonymizeContext(ctx, tab, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mondrian returned %v, want context.Canceled wrap", err)
	}
}

// TestEngineStatsSurfaceInResults checks every engine-backed algorithm
// reports the engine_* counters through Result.Stats.
func TestEngineStatsSurfaceInResults(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(100, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	r, err := optimal.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"engine_nodes_evaluated", "engine_cache_hits", "engine_cache_misses", "engine_rows_scanned"} {
		if _, ok := r.Stats[key]; !ok {
			t.Errorf("Result.Stats missing %q: %v", key, r.Stats)
		}
	}
	if r.Stats["engine_nodes_evaluated"] != r.Stats["nodes_evaluated"] {
		t.Errorf("engine count %v != reported nodes_evaluated %v",
			r.Stats["engine_nodes_evaluated"], r.Stats["nodes_evaluated"])
	}
}
