// Package algtest provides the shared conformance harness every disclosure
// control algorithm's tests run: output invariants (size preservation,
// k-anonymity within the suppression budget, valid generalizations),
// determinism, and failure behaviour on impossible configurations.
package algtest

import (
	"fmt"
	"math"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
)

// PaperConfig returns T1 with a standard configuration at the given k.
func PaperConfig(k int) (*dataset.Table, algorithm.Config) {
	return paperdata.T1(), algorithm.Config{
		K:              k,
		Hierarchies:    paperdata.Hierarchies(),
		MaxSuppression: 0,
		Metric:         algorithm.MetricLM,
	}
}

// CensusConfig returns a synthetic census of the given size with a
// standard configuration.
func CensusConfig(n, k int, seed int64) (*dataset.Table, algorithm.Config, error) {
	t, err := generator.Generate(generator.Config{N: n, Seed: seed})
	if err != nil {
		return nil, algorithm.Config{}, err
	}
	return t, algorithm.Config{
		K:              k,
		Hierarchies:    generator.Hierarchies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Taxonomies:     generator.Taxonomies(),
		Seed:           seed,
	}, nil
}

// CheckResult asserts the cross-algorithm output invariants.
func CheckResult(t *testing.T, orig *dataset.Table, cfg algorithm.Config, r *algorithm.Result) {
	t.Helper()
	if r.Table.Len() != orig.Len() {
		t.Fatalf("%s: output has %d rows, input %d (suppression must not drop tuples)", r.Algorithm, r.Table.Len(), orig.Len())
	}
	if !algorithm.SatisfiesK(r.Partition, r.Table, cfg.K) {
		t.Fatalf("%s: output violates %d-anonymity", r.Algorithm, cfg.K)
	}
	budget := cfg.Budget(orig.Len())
	if len(r.Suppressed) > budget {
		t.Fatalf("%s: suppressed %d rows, budget %d", r.Algorithm, len(r.Suppressed), budget)
	}
	// Partition must describe the table.
	if r.Partition.N() != r.Table.Len() {
		t.Fatalf("%s: partition covers %d rows, table has %d", r.Algorithm, r.Partition.N(), r.Table.Len())
	}
	// Sensitive columns must be untouched.
	for _, j := range sensitiveCols(orig) {
		for i := 0; i < orig.Len(); i++ {
			if !r.Table.At(i, j).Equal(orig.At(i, j)) {
				t.Fatalf("%s: sensitive cell (%d,%d) modified", r.Algorithm, i, j)
			}
		}
	}
	// Every generalized QI cell must cover the original ground value
	// (Mondrian numeric hulls use the closed-interval convention, so the
	// low endpoint is checked with slack).
	qi := orig.Schema.QuasiIdentifiers()
	for i := 0; i < orig.Len(); i++ {
		for _, j := range qi {
			g, o := r.Table.At(i, j), orig.At(i, j)
			if g.Equal(o) || g.IsSuppressed() {
				continue
			}
			if g.Kind() == dataset.Interval && o.Kind() == dataset.Num {
				lo, hi := g.Bounds()
				if o.Float() < lo || o.Float() > hi {
					t.Fatalf("%s: cell (%d,%d): %v outside hull %v", r.Algorithm, i, j, o, g)
				}
				continue
			}
			if g.Kind() == dataset.Set {
				continue // taxonomy coverage checked by the privacy tests
			}
			if !g.Covers(o) {
				t.Fatalf("%s: cell (%d,%d): %v does not cover %v", r.Algorithm, i, j, g, o)
			}
		}
	}
}

func sensitiveCols(t *dataset.Table) []int {
	var out []int
	for j, a := range t.Schema.Attrs {
		if a.Role == dataset.Sensitive {
			out = append(out, j)
		}
	}
	return out
}

// CheckDeterminism runs the algorithm twice and asserts identical output.
func CheckDeterminism(t *testing.T, alg algorithm.Algorithm, orig *dataset.Table, cfg algorithm.Config) {
	t.Helper()
	r1, err := alg.Anonymize(orig, cfg)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	r2, err := alg.Anonymize(orig, cfg)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	for i := 0; i < r1.Table.Len(); i++ {
		for j := 0; j < r1.Table.Schema.Len(); j++ {
			if !r1.Table.At(i, j).Equal(r2.Table.At(i, j)) {
				t.Fatalf("%s: nondeterministic at cell (%d,%d)", alg.Name(), i, j)
			}
		}
	}
}

// CheckCommonFailures asserts the standard error paths.
func CheckCommonFailures(t *testing.T, alg algorithm.Algorithm) {
	t.Helper()
	tab := paperdata.T1()
	good := algorithm.Config{K: 2, Hierarchies: paperdata.Hierarchies()}
	bad := []algorithm.Config{
		{K: 0, Hierarchies: paperdata.Hierarchies()},
		{K: 99, Hierarchies: paperdata.Hierarchies()},
		{K: 2, Hierarchies: nil},
		{K: 2, Hierarchies: paperdata.Hierarchies(), MaxSuppression: 1.5},
		{K: 2, Hierarchies: paperdata.Hierarchies(), MaxSuppression: -0.1},
	}
	for i, cfg := range bad {
		if _, err := alg.Anonymize(tab, cfg); err == nil {
			t.Errorf("%s: bad config %d accepted", alg.Name(), i)
		}
	}
	if _, err := alg.Anonymize(dataset.NewColumnar(paperdata.Schema()).Table(), good); err == nil {
		t.Errorf("%s: empty table accepted", alg.Name())
	}
}

// KIsAchieved asserts the classical scalar check via package privacy on the
// non-suppressed portion.
func KIsAchieved(t *testing.T, r *algorithm.Result, k int) {
	t.Helper()
	if len(r.Suppressed) == 0 {
		ok, err := privacy.IsKAnonymous(r.Partition, k)
		if err != nil || !ok {
			t.Fatalf("%s: IsKAnonymous(%d) = %v, %v", r.Algorithm, k, ok, err)
		}
	}
}

// NodeCost scores a lattice node the direct way, re-generalizing the table
// from its rows: ApplyNode, the suppression budget, then the configured
// metric on the suppressed release. Lower is better for every metric
// (precision is negated); a node past the budget costs +Inf. It is the
// reference the engine's Evaluation.Cost and the searches' choices are
// pinned against.
func NodeCost(t *dataset.Table, cfg algorithm.Config, node lattice.Node) (float64, error) {
	anon, p, small, err := algorithm.ApplyNode(t, cfg, node)
	if err != nil {
		return 0, err
	}
	if len(small) > cfg.Budget(t.Len()) {
		return math.Inf(1), nil
	}
	if len(small) > 0 {
		if anon, err = hierarchy.SuppressRows(anon, small); err != nil {
			return 0, err
		}
		if p, err = eqclass.FromTable(anon); err != nil {
			return 0, err
		}
	}
	return algorithm.ResultCost(&algorithm.Result{Table: anon, Partition: p, Levels: node}, t, cfg)
}

// Suppression is the trivial two-level hierarchy: level 0 keeps the value,
// level 1 suppresses it. It accepts any value, so tests give it to columns
// no ladder covers (mixed kinds, missing cells, non-finite numbers).
type Suppression struct {
	attr string
}

// NewSuppression builds a suppression-only hierarchy.
func NewSuppression(attr string) *Suppression { return &Suppression{attr: attr} }

// Attribute implements hierarchy.Hierarchy.
func (h *Suppression) Attribute() string { return h.attr }

// MaxLevel implements hierarchy.Hierarchy.
func (h *Suppression) MaxLevel() int { return 1 }

// Generalize implements hierarchy.Hierarchy.
func (h *Suppression) Generalize(v dataset.Value, level int) (dataset.Value, error) {
	if level < 0 || level > 1 {
		return dataset.Value{}, fmt.Errorf("suppression %q: level %d out of range [0,1]", h.attr, level)
	}
	if level == 1 {
		return dataset.StarVal(), nil
	}
	return v, nil
}

// Loss implements hierarchy.Hierarchy.
func (h *Suppression) Loss(_ dataset.Value, level int) (float64, error) {
	if level < 0 || level > 1 {
		return 0, fmt.Errorf("suppression %q: level %d out of range [0,1]", h.attr, level)
	}
	return float64(level), nil
}
