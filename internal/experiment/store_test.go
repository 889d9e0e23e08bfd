package experiment

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/freqset"
	"microdata/internal/telemetry"
)

// storeConfigs are the configurations the store tests run the roster
// under at one k: LM, DM and Prec on the plain keying, and distinct ℓ=2,
// which keys the frequency sets on the sensitive code too.
func storeConfigs(c *census, k int, store *freqset.Store) []algorithm.Config {
	var out []algorithm.Config
	for _, m := range []algorithm.Metric{algorithm.MetricLM, algorithm.MetricDM, algorithm.MetricPrec} {
		cfg := c.config(Options{Seed: 1}, k)
		cfg.Metric = m
		out = append(out, cfg)
	}
	ldiv := c.config(Options{Seed: 1}, k)
	ldiv.MinLDiversity = 2
	out = append(out, ldiv)
	for i := range out {
		out[i].Store = store
	}
	return out
}

// releaseDigest is everything a run publishes: the chosen node, the
// suppressed rows and the release's CSV bytes, or the failure.
func releaseDigest(alg algorithm.Algorithm, tab *dataset.Table, cfg algorithm.Config) string {
	r, err := algorithm.AnonymizeContext(context.Background(), alg, tab, cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "levels=%v suppressed=%v\n", r.Levels, r.Suppressed)
	if err := dataset.WriteCSV(&buf, r.Table); err != nil {
		return "csv error: " + err.Error()
	}
	return buf.String()
}

// TestSharedStoreMatchesPrivate runs every algorithm at k ∈ {2, 5, 10}
// under LM, DM, Prec and distinct ℓ=2, once with private stores and three
// times on one shared store per pass — sequentially in roster order, in
// reverse order, and all runs concurrently — and requires the same
// release from each.
func TestSharedStoreMatchesPrivate(t *testing.T) {
	c, err := drawCensus(Options{CensusN: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	algs := suite()
	type run struct {
		alg int
		cfg algorithm.Config
	}
	runs := func(store *freqset.Store) []run {
		var out []run
		for _, k := range []int{2, 5, 10} {
			for _, cfg := range storeConfigs(c, k, store) {
				for a := range algs {
					out = append(out, run{a, cfg})
				}
			}
		}
		return out
	}
	private := runs(nil)
	want := make([]string, len(private))
	for i, r := range private {
		want[i] = releaseDigest(algs[r.alg], c.tab, r.cfg)
	}
	check := func(mode string, got []string) {
		t.Helper()
		for i, r := range private {
			if got[i] != want[i] {
				t.Errorf("%s: %s at k=%d %v ℓ=%d differs from its private-store run:\n got %.200q\nwant %.200q",
					mode, algs[r.alg].Name(), r.cfg.K, r.cfg.Metric, r.cfg.MinLDiversity, got[i], want[i])
			}
		}
	}

	shared := freqset.New(c.tab, c.hs, c.tax, 0)
	got := make([]string, len(private))
	for i, r := range runs(shared) {
		got[i] = releaseDigest(algs[r.alg], c.tab, r.cfg)
	}
	check("shared, roster order", got)

	shared = freqset.New(c.tab, c.hs, c.tax, 0)
	got = make([]string, len(private))
	rs := runs(shared)
	for i := len(rs) - 1; i >= 0; i-- {
		got[i] = releaseDigest(algs[rs[i].alg], c.tab, rs[i].cfg)
	}
	check("shared, reverse order", got)

	shared = freqset.New(c.tab, c.hs, c.tax, 0)
	got = make([]string, len(private))
	var wg sync.WaitGroup
	for i, r := range runs(shared) {
		wg.Add(1)
		go func(i int, r run) {
			defer wg.Done()
			got[i] = releaseDigest(algs[r.alg], c.tab, r.cfg)
		}(i, r)
	}
	wg.Wait()
	check("shared, concurrent", got)
}

// rollupsUnder runs fn under a fresh telemetry collector and returns the
// engine roll-ups it counted.
func rollupsUnder(t *testing.T, fn func()) int64 {
	t.Helper()
	col := telemetry.NewCollector()
	prev := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prev)
	fn()
	return col.Metrics.Snapshot().Counters[engine.MetricRollups]
}

// TestConcurrentSuiteRollsUpOncePerNode runs the 11 algorithms
// concurrently on one store: together they roll each distinct (node,
// keying) up exactly once, far fewer times than they evaluate nodes.
func TestConcurrentSuiteRollsUpOncePerNode(t *testing.T) {
	c, err := drawCensus(Options{CensusN: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var evaluated float64
	rollups := rollupsUnder(t, func() {
		runs, errs := runSuite(context.Background(), c.tab, c.config(Options{Seed: 1}, 5))
		for i, r := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			evaluated += r.result.Stats["engine_nodes_evaluated"]
		}
	})
	if distinct := int64(c.store.Len()); rollups != distinct {
		t.Fatalf("%d roll-ups for %d distinct frequency sets, want one each", rollups, distinct)
	}
	if float64(rollups) >= evaluated {
		t.Fatalf("%d roll-ups for %v node evaluations: the store shared nothing", rollups, evaluated)
	}
}

// TestMuArgusOnStoreRollsUpNothing pins that μ-Argus, which groups rows on
// fragment ids and evaluates no node, neither builds a base frequency set
// nor rolls anything up on a shared store.
func TestMuArgusOnStoreRollsUpNothing(t *testing.T) {
	c, err := drawCensus(Options{CensusN: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var r *algorithm.Result
	rollups := rollupsUnder(t, func() {
		r, err = muargus.New().Anonymize(c.tab, c.config(Options{Seed: 1}, 5))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rollups != 0 || c.store.Len() != 0 {
		t.Fatalf("μ-Argus rolled up %d sets, store holds %d", rollups, c.store.Len())
	}
	if rows := r.Stats["engine_rows_scanned"]; rows != 0 {
		t.Fatalf("μ-Argus scanned %v rows: it built a base", rows)
	}
}
