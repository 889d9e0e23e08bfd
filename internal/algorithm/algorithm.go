// Package algorithm defines the common contract for the disclosure control
// algorithms rebuilt for this reproduction (the paper's §6 survey): a
// shared Config, a Result carrying the anonymized table plus everything the
// comparison framework needs, and helpers for the global-recoding
// generalize-then-suppress workflow every lattice-based algorithm shares.
package algorithm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/freqset"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/privacy"
	"microdata/internal/telemetry"
	"microdata/internal/utility"
)

// Metric selects the utility objective a search-based algorithm optimizes.
type Metric uint8

const (
	// MetricLM is Iyengar's general loss metric (lower is better).
	MetricLM Metric = iota
	// MetricDM is the discernibility metric (lower is better).
	MetricDM
	// MetricPrec is Samarati's precision (higher is better); callers
	// receive it negated so that every metric is minimized uniformly.
	MetricPrec
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricLM:
		return "LM"
	case MetricDM:
		return "DM"
	case MetricPrec:
		return "Prec"
	default:
		return fmt.Sprintf("Metric(%d)", uint8(m))
	}
}

// Config parameterizes an anonymization run.
type Config struct {
	// K is the k-anonymity requirement; must be >= 1.
	K int
	// Hierarchies supplies the generalization ladder per quasi-identifier.
	Hierarchies hierarchy.Set
	// MaxSuppression is the fraction of rows (0..1) the algorithm may
	// suppress to rescue small equivalence classes.
	MaxSuppression float64
	// Metric is the utility objective for algorithms that search.
	Metric Metric
	// Taxonomies feeds loss computation for Set-generalized columns.
	Taxonomies map[string]*hierarchy.Taxonomy
	// Seed drives stochastic algorithms (the genetic algorithm).
	Seed int64
	// MinLDiversity, when > 0, additionally requires every retained
	// equivalence class to hold at least this many DISTINCT sensitive
	// values (p-sensitive / distinct ℓ-diversity as a second property —
	// the multi-property optimization the paper's §4 notes is rare).
	// Requires a sensitive attribute in the schema.
	MinLDiversity int
	// MaxTCloseness, when > 0, additionally bounds every retained
	// class's earth-mover distance (equal-distance ground metric) from
	// the table's global sensitive distribution. Requires a sensitive
	// attribute in the schema.
	MaxTCloseness float64
	// MinEntropyL, when > 0, additionally requires every retained class
	// to be entropy ℓ-diverse at this level: exp(H(class sensitive
	// distribution)) >= MinEntropyL (Machanavajjhala et al.). Requires a
	// sensitive attribute in the schema.
	MinEntropyL float64
	// RecursiveC and RecursiveL, when both > 0, additionally require
	// every retained class to be recursive (c,ℓ)-diverse: with sensitive
	// frequencies r_1 >= ... >= r_m, r_1 < c·(r_ℓ + ... + r_m)
	// (Machanavajjhala et al.). Requires a sensitive attribute.
	RecursiveC float64
	RecursiveL int
	// Store, when set, supplies the frequency sets of lattice nodes. One
	// store shared by every run over the same table and hierarchy set rolls
	// each node up once for all of them; it must come from freqset.New
	// with this table, Hierarchies and Taxonomies, or the engine rejects
	// it. Nil gives each engine a private store.
	Store *freqset.Store
}

// HasDiversityConstraints reports whether any secondary privacy property
// (ℓ-diversity in any variant, or t-closeness) is requested — whether a
// class's verdict depends on its sensitive values.
func (c Config) HasDiversityConstraints() bool {
	return c.MinLDiversity > 0 || c.MaxTCloseness > 0 || c.MinEntropyL > 0 ||
		(c.RecursiveC > 0 && c.RecursiveL > 0)
}

// Budget returns the number of rows the configuration allows suppressing in
// a table of n rows: the largest b <= n with b/n <= MaxSuppression.
func (c Config) Budget(n int) int {
	if n <= 0 {
		return 0
	}
	// The product can round across an integer: 0.29×100 evaluates to
	// 28.999999999999996. Settle on the ratio instead.
	b := int(c.MaxSuppression * float64(n))
	for b < n && float64(b+1)/float64(n) <= c.MaxSuppression {
		b++
	}
	for b > 0 && float64(b)/float64(n) > c.MaxSuppression {
		b--
	}
	return b
}

// Validate rejects unusable configurations for the given table.
func (c Config) Validate(t *dataset.Table) error {
	if t == nil || t.Len() == 0 {
		return fmt.Errorf("algorithm: empty table")
	}
	if c.K < 1 {
		return fmt.Errorf("algorithm: k must be >= 1, got %d", c.K)
	}
	if c.K > t.Len() {
		return fmt.Errorf("algorithm: k=%d exceeds table size %d", c.K, t.Len())
	}
	if c.MaxSuppression < 0 || c.MaxSuppression > 1 || math.IsNaN(c.MaxSuppression) {
		return fmt.Errorf("algorithm: max suppression %v outside [0,1]", c.MaxSuppression)
	}
	if c.Hierarchies == nil {
		return fmt.Errorf("algorithm: no hierarchies configured")
	}
	if c.MinLDiversity < 0 {
		return fmt.Errorf("algorithm: negative ℓ-diversity requirement %d", c.MinLDiversity)
	}
	if c.MaxTCloseness < 0 || c.MaxTCloseness > 1 || math.IsNaN(c.MaxTCloseness) {
		return fmt.Errorf("algorithm: t-closeness bound %v outside [0,1]", c.MaxTCloseness)
	}
	if c.MinEntropyL < 0 || math.IsNaN(c.MinEntropyL) || math.IsInf(c.MinEntropyL, 0) {
		return fmt.Errorf("algorithm: entropy ℓ requirement %v is not a non-negative finite number", c.MinEntropyL)
	}
	if c.RecursiveC < 0 || math.IsNaN(c.RecursiveC) || math.IsInf(c.RecursiveC, 0) {
		return fmt.Errorf("algorithm: recursive c %v is not a non-negative finite number", c.RecursiveC)
	}
	if c.RecursiveL < 0 {
		return fmt.Errorf("algorithm: negative recursive ℓ %d", c.RecursiveL)
	}
	if (c.RecursiveC > 0) != (c.RecursiveL > 0) {
		return fmt.Errorf("algorithm: recursive (c,ℓ)-diversity needs both c and ℓ set")
	}
	if c.HasDiversityConstraints() && t.Schema.SensitiveIndex() < 0 {
		return fmt.Errorf("algorithm: diversity constraints need a sensitive attribute")
	}
	if err := c.Hierarchies.CoverQI(t.Schema); err != nil {
		return err
	}
	// Every quasi-identifier value must lie in its hierarchy's ground
	// domain; one check per distinct value.
	for _, j := range t.Schema.QuasiIdentifiers() {
		name := t.Schema.Attrs[j].Name
		for _, v := range t.ColumnVector(j).Dict() {
			if _, err := c.Hierarchies[name].Generalize(v, 0); err != nil {
				return fmt.Errorf("algorithm: attribute %q: %w", name, err)
			}
		}
	}
	return nil
}

// Result is the outcome of an anonymization run.
type Result struct {
	// Algorithm names the producing algorithm.
	Algorithm string
	// Table is the anonymized data set — same size as the original, with
	// suppressed tuples kept in fully generalized form (paper §3).
	Table *dataset.Table
	// Partition is the equivalence-class partition of Table.
	Partition *eqclass.Partition
	// Levels is the lattice node used, for global-recoding algorithms;
	// nil for local recoding (Mondrian).
	Levels lattice.Node
	// Suppressed lists the rows whose quasi-identifiers were suppressed.
	Suppressed []int
	// Stats carries algorithm-specific counters (nodes explored,
	// generations run, ...).
	Stats map[string]float64
}

// Algorithm is a microdata disclosure control algorithm.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Anonymize produces a k-anonymous (within cfg's suppression budget)
	// version of the table. The input table is never modified.
	Anonymize(t *dataset.Table, cfg Config) (*Result, error)
}

// ContextAlgorithm is implemented by algorithms whose searches honor a
// context: cancelling the context aborts the search promptly with an error
// wrapping context.Canceled (the engine attaches its partial counters, see
// package engine).
type ContextAlgorithm interface {
	Algorithm
	// AnonymizeContext is Anonymize under a cancellable context.
	AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error)
}

// AnonymizeContext runs the algorithm under ctx when it supports
// cancellation and falls back to the plain entry point otherwise (after a
// single upfront cancellation check).
func AnonymizeContext(ctx context.Context, alg Algorithm, t *dataset.Table, cfg Config) (*Result, error) {
	if ca, ok := alg.(ContextAlgorithm); ok {
		return ca.AnonymizeContext(ctx, t, cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("algorithm: %s not started: %w", alg.Name(), err)
	}
	return alg.Anonymize(t, cfg)
}

// isStarClass reports whether the class's quasi-identifiers are fully
// suppressed (the paper-§3 unlinkable class).
func isStarClass(t *dataset.Table, rows []int, qi []int) bool {
	for _, j := range qi {
		if !t.At(rows[0], j).IsSuppressed() {
			return false
		}
	}
	return true
}

// SatisfiesK reports whether the partition is k-anonymous when suppressed
// rows are granted the paper's convention: the all-star class they form is
// unlinkable and therefore exempt from the minimum-size requirement (an
// empty suppressed set leaves plain k-anonymity).
func SatisfiesK(p *eqclass.Partition, t *dataset.Table, k int) bool {
	if p.N() == 0 {
		return false
	}
	qi := t.Schema.QuasiIdentifiers()
	for _, rows := range p.Classes {
		if len(rows) >= k {
			continue
		}
		if !isStarClass(t, rows, qi) {
			return false
		}
	}
	return true
}

// SatisfiesConstraints reports whether the partition meets the k
// requirement and every configured secondary privacy property, with the
// all-star class exempt.
func SatisfiesConstraints(p *eqclass.Partition, t *dataset.Table, cfg Config) (bool, error) {
	if !SatisfiesK(p, t, cfg.K) {
		return false, nil
	}
	if !cfg.HasDiversityConstraints() {
		return true, nil
	}
	bad, err := ViolatingClasses(p, t, cfg)
	if err != nil {
		return false, err
	}
	qi := t.Schema.QuasiIdentifiers()
	for ci := range bad {
		if bad[ci] && !isStarClass(t, p.Classes[ci], qi) {
			return false, nil
		}
	}
	return true, nil
}

// ViolatingClasses marks, per class, whether any constraint (k, ℓ, t)
// fails. The star-class exemption is NOT applied here; callers decide. The
// table supplies only the sensitive column, which generalization never
// touches, so the original and any generalized copy are interchangeable.
func ViolatingClasses(p *eqclass.Partition, t *dataset.Table, cfg Config) ([]bool, error) {
	hist := &eqclass.Histograms{}
	var sup *privacy.Support
	if cfg.HasDiversityConstraints() {
		si := t.Schema.SensitiveIndex()
		if si < 0 {
			return nil, fmt.Errorf("algorithm: diversity constraints need a sensitive attribute")
		}
		col := t.ColumnVector(si)
		var err error
		if hist, err = p.Histograms(col); err != nil {
			return nil, err
		}
		if cfg.MaxTCloseness > 0 {
			sup = privacy.NewSupport(col, false)
		}
	}
	rule := cfg.ClassRule(sup)
	bad := make([]bool, p.NumClasses())
	for ci, rows := range p.Classes {
		sens, counts := hist.Class(ci)
		bad[ci] = rule.Violates(len(rows), sens, counts)
	}
	return bad, nil
}

// ClassRule is the one definition of the per-class constraint rule:
// ViolatingClasses applies it to a row partition, package engine to a
// frequency set's classes and package mondrian to a candidate region. It
// holds scratch, so each goroutine needs its own.
type ClassRule struct {
	cfg     Config
	diverse bool // cfg.HasDiversityConstraints()
	sup     *privacy.Support
	counts  []int
	local   []float64
}

// ClassRule returns the configuration's per-class rule over the sensitive
// column's t-closeness support, which may be nil unless MaxTCloseness is
// set.
func (c Config) ClassRule(sup *privacy.Support) *ClassRule {
	r := &ClassRule{cfg: c, diverse: c.HasDiversityConstraints(), sup: sup}
	if c.MaxTCloseness > 0 {
		r.local = make([]float64, len(sup.Global))
	}
	return r
}

// Violates reports whether one class of size rows fails a configured
// constraint, given its sensitive histogram entries: codes sens of the
// support's column with counts hist, both empty when only k is checked.
// The entries are read, never reordered: they may be shared state. The k
// test is kept apart so that it inlines into the callers' class loops.
func (r *ClassRule) Violates(size int, sens, hist []uint32) bool {
	return size < r.cfg.K || r.diverse && r.violatesHistogram(sens, hist)
}

// violatesHistogram applies the ℓ, t, entropy and recursive bounds.
func (r *ClassRule) violatesHistogram(sens, hist []uint32) bool {
	c := &r.cfg
	switch {
	case c.MinLDiversity > 0 && len(sens) < c.MinLDiversity:
		return true
	case c.MaxTCloseness > 0 && r.sup.ClassEMD(sens, hist, r.local) > c.MaxTCloseness+1e-12:
		return true
	}
	recursive := c.RecursiveC > 0 && c.RecursiveL > 0
	if c.MinEntropyL <= 0 && !recursive {
		return false
	}
	// EntropyL and RecursiveCL reorder their argument: hand them a copy.
	r.counts = privacy.Counts(r.counts, hist)
	if c.MinEntropyL > 0 && privacy.EntropyL(r.counts) < c.MinEntropyL-1e-12 {
		return true
	}
	return recursive && !privacy.RecursiveCL(r.counts, c.RecursiveC, c.RecursiveL)
}

// ApplyNode generalizes the table to the lattice node and reports which
// rows sit in classes violating the configured constraints (undersized for
// k, or short of the ℓ-diversity / t-closeness requirements). It is the
// evaluation primitive shared by the lattice-searching algorithms.
func ApplyNode(t *dataset.Table, cfg Config, node lattice.Node) (*dataset.Table, *eqclass.Partition, []int, error) {
	anon, err := hierarchy.GeneralizeTable(t, cfg.Hierarchies, node)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := eqclass.FromTable(anon)
	if err != nil {
		return nil, nil, nil, err
	}
	bad, err := ViolatingClasses(p, anon, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var small []int
	for ci, rows := range p.Classes {
		if bad[ci] {
			small = append(small, rows...)
		}
	}
	sort.Ints(small)
	return anon, p, small, nil
}

// FinishGlobal completes a global-recoding run at the chosen node:
// generalize, suppress the undersized classes if the budget allows, and
// package the Result. It fails when the node needs more suppression than
// cfg.MaxSuppression permits.
func FinishGlobal(name string, t *dataset.Table, cfg Config, node lattice.Node, stats map[string]float64) (*Result, error) {
	return FinishGlobalContext(context.Background(), name, t, cfg, node, stats)
}

// FinishGlobalContext is FinishGlobal under the caller's telemetry
// context: the one-time table materialization is traced as an
// "algorithm.materialize" span, the third phase of the standard
// precompute / search / materialize breakdown.
func FinishGlobalContext(ctx context.Context, name string, t *dataset.Table, cfg Config, node lattice.Node, stats map[string]float64) (*Result, error) {
	_, sp := telemetry.Start(ctx, "algorithm.materialize", telemetry.String("algorithm", name))
	defer sp.End()
	anon, p, small, err := ApplyNode(t, cfg, node)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget(t.Len())
	if len(small) > budget {
		return nil, fmt.Errorf("algorithm: node %v needs %d suppressions, budget is %d", node, len(small), budget)
	}
	if len(small) > 0 {
		if anon, p, err = suppress(anon, small); err != nil {
			return nil, err
		}
	}
	if ok, err := SatisfiesConstraints(p, anon, cfg); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("algorithm: node %v does not satisfy the privacy constraints after suppression", node)
	}
	if stats == nil {
		stats = map[string]float64{}
	}
	stats["suppressed"] = float64(len(small))
	return &Result{
		Algorithm:  name,
		Table:      anon,
		Partition:  p,
		Levels:     node.Clone(),
		Suppressed: small,
		Stats:      stats,
	}, nil
}

// suppress stars the quasi-identifiers of the given rows and regroups the
// result.
func suppress(anon *dataset.Table, rows []int) (*dataset.Table, *eqclass.Partition, error) {
	anon, err := hierarchy.SuppressRows(anon, rows)
	if err != nil {
		return nil, nil, err
	}
	p, err := eqclass.FromTable(anon)
	if err != nil {
		return nil, nil, err
	}
	return anon, p, nil
}

func cost(anon, orig *dataset.Table, p *eqclass.Partition, cfg Config, node lattice.Node) (float64, error) {
	switch cfg.Metric {
	case MetricLM:
		return utility.GeneralLossMetric(anon, orig, utility.LossConfig{Taxonomies: cfg.Taxonomies})
	case MetricDM:
		return utility.DiscernibilityMetric(p), nil
	case MetricPrec:
		if node == nil {
			// Local recodings have no lattice node; fall back to LM.
			return utility.GeneralLossMetric(anon, orig, utility.LossConfig{Taxonomies: cfg.Taxonomies})
		}
		prec, err := utility.Precision(orig.Schema, cfg.Hierarchies, node)
		if err != nil {
			return 0, err
		}
		return -prec, nil
	default:
		return 0, fmt.Errorf("algorithm: unknown metric %v", cfg.Metric)
	}
}

// ResultCost scores a finished Result under the configured metric, for
// cross-algorithm tables.
func ResultCost(r *Result, orig *dataset.Table, cfg Config) (float64, error) {
	return cost(r.Table, orig, r.Partition, cfg, r.Levels)
}
