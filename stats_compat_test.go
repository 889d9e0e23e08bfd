package microdata_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"microdata"
)

// engineKeys are the evaluation-engine counters every global-recoding
// algorithm merges into Result.Stats.
var engineKeys = []string{
	"engine_cache_hits", "engine_cache_misses", "engine_eval_ms",
	"engine_nodes_evaluated", "engine_precompute_ms", "engine_rows_scanned",
}

// wantStatsKeys pins the exact Result.Stats key set per algorithm, as it
// was before the telemetry layer, plus Mondrian's cut_attempts (the
// candidate cuts whose validity was checked). Telemetry-only counters (e.g.
// samarati.strata_evaluated, incognito.nodes_inherited) must NOT leak into
// Result.Stats — they are visible only through the -metrics snapshot.
var wantStatsKeys = map[string][]string{
	"bottomup":            append([]string{"generalization_steps", "suppressed"}, engineKeys...),
	"datafly":             append([]string{"generalization_steps", "suppressed"}, engineKeys...),
	"genetic":             append([]string{"best_fitness", "fitness_evaluations", "generations", "suppressed"}, engineKeys...),
	"genetic-constrained": append([]string{"best_fitness", "fitness_evaluations", "generations", "suppressed"}, engineKeys...),
	"incognito":           append([]string{"minimal_nodes", "nodes_evaluated", "suppressed"}, engineKeys...),
	"mondrian":            {"cut_attempts", "cuts", "regions"},
	"mondrian-relaxed":    {"cut_attempts", "cuts", "regions"},
	"mu-argus":            append([]string{"combination_order", "generalization_steps", "suppressed"}, engineKeys...),
	"ola":                 append([]string{"nodes_evaluated", "nodes_tagged", "suppressed"}, engineKeys...),
	"optimal":             append([]string{"best_cost", "nodes_evaluated", "suppressed"}, engineKeys...),
	"samarati":            append([]string{"minimal_height", "nodes_evaluated", "suppressed"}, engineKeys...),
	"topdown":             append([]string{"final_cost", "specializations", "suppressed"}, engineKeys...),
}

func statsKeys(t *testing.T, name string, withCollector bool) []string {
	t.Helper()
	tab, err := microdata.Generate(microdata.GeneratorConfig{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := microdata.AlgorithmConfig{
		K:              3,
		Hierarchies:    microdata.CensusHierarchies(),
		Taxonomies:     microdata.CensusTaxonomies(),
		MaxSuppression: 0.05,
		Metric:         microdata.MetricLM,
		Seed:           1,
	}
	if withCollector {
		prev := microdata.SetTelemetryCollector(microdata.NewTelemetryCollector())
		defer microdata.SetTelemetryCollector(prev)
	}
	alg, err := microdata.NewAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := microdata.AnonymizeContext(context.Background(), alg, tab, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var keys []string
	for k := range r.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResultStatsKeysByteCompatible asserts every algorithm's Result.Stats
// key set is exactly the pre-telemetry set, whether or not a telemetry
// collector is installed.
func TestResultStatsKeysByteCompatible(t *testing.T) {
	names := microdata.AlgorithmNames()
	if len(names) != len(wantStatsKeys) {
		t.Fatalf("registry has %d algorithms, compat table has %d", len(names), len(wantStatsKeys))
	}
	for _, name := range names {
		want := append([]string(nil), wantStatsKeys[name]...)
		sort.Strings(want)
		off := statsKeys(t, name, false)
		if !reflect.DeepEqual(off, want) {
			t.Errorf("%s stats keys (telemetry off) = %v, want %v", name, off, want)
		}
		on := statsKeys(t, name, true)
		if !reflect.DeepEqual(on, want) {
			t.Errorf("%s stats keys (telemetry on) = %v, want %v", name, on, want)
		}
	}
}
