// Package workload evaluates anonymizations by aggregate-query accuracy —
// the utility view LeFevre et al. use to motivate multidimensional
// recoding (paper §6: partitionings that "capture the underlying
// multivariate distribution" answer "queries with predicates on more than
// just one attribute" better).
//
// A workload is a set of random COUNT queries with conjunctive range /
// category predicates over the quasi-identifiers. The true answer comes
// from the original table; the estimated answer from the anonymized table
// under the standard uniformity assumption: a generalized record
// contributes the fraction of its region that overlaps the predicate.
// Accuracy is reported as the distribution of absolute and relative errors
// over the workload.
//
// A cell's selectivity depends only on its value, so every count prices
// each predicate once per entry of its column's dictionary and then reads
// one row's factor by its code. The rows multiply their factors in
// predicate order and are summed in row order, as a per-row loop would,
// so each count keeps its bits. Prepare does the release-independent work
// once per workload: the estimator's domains, each categorical predicate's
// value set and the true answers. Its Prepared then evaluates any number
// of releases, concurrently if wanted.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
	"microdata/internal/stats"
)

// Predicate restricts one quasi-identifier.
type Predicate struct {
	// Attr names the attribute.
	Attr string
	// Lo and Hi bound a numeric attribute: Lo <= x <= Hi.
	Lo, Hi float64
	// Values lists acceptable ground values of a categorical attribute.
	Values []string
}

// Query is a conjunctive COUNT query.
type Query struct {
	Predicates []Predicate
}

// Config parameterizes workload generation.
type Config struct {
	// Queries is the number of queries (default 100).
	Queries int
	// Predicates per query (default 2, the multi-attribute case the
	// Mondrian paper emphasizes).
	Predicates int
	// Seed drives the deterministic generator.
	Seed int64
}

// Generate draws a random workload against the original table's value
// distributions: numeric predicates are random sub-ranges of the observed
// domain, categorical predicates random value subsets.
func Generate(orig *dataset.Table, cfg Config) ([]Query, error) {
	if orig == nil || orig.Len() == 0 {
		return nil, fmt.Errorf("workload: empty table")
	}
	qi := orig.Schema.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("workload: no quasi-identifiers")
	}
	nq := cfg.Queries
	if nq <= 0 {
		nq = 100
	}
	np := cfg.Predicates
	if np <= 0 {
		np = 2
	}
	if np > len(qi) {
		np = len(qi)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pre-compute per-attribute domains.
	type dom struct {
		numeric bool
		lo, hi  float64
		values  []string
	}
	doms := make([]dom, len(qi))
	for d, j := range qi {
		if orig.Schema.Attrs[j].Kind == dataset.Numeric {
			lo, hi, ok := orig.NumericRange(j)
			if !ok {
				return nil, fmt.Errorf("workload: numeric attribute %q has no values", orig.Schema.Attrs[j].Name)
			}
			doms[d] = dom{numeric: true, lo: lo, hi: hi}
			continue
		}
		seen := map[string]bool{}
		var vals []string
		for i := 0; i < orig.Len(); i++ {
			v := orig.At(i, j)
			if v.Kind() == dataset.Str && !seen[v.Text()] {
				seen[v.Text()] = true
				vals = append(vals, v.Text())
			}
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("workload: categorical attribute %q has no ground values", orig.Schema.Attrs[j].Name)
		}
		sort.Strings(vals)
		doms[d] = dom{values: vals}
	}
	queries := make([]Query, nq)
	for q := range queries {
		picked := rng.Perm(len(qi))[:np]
		sort.Ints(picked)
		preds := make([]Predicate, 0, np)
		for _, d := range picked {
			attr := orig.Schema.Attrs[qi[d]].Name
			if doms[d].numeric {
				span := doms[d].hi - doms[d].lo
				a := doms[d].lo + rng.Float64()*span
				b := doms[d].lo + rng.Float64()*span
				if a > b {
					a, b = b, a
				}
				preds = append(preds, Predicate{Attr: attr, Lo: a, Hi: b})
				continue
			}
			vals := doms[d].values
			nsel := 1 + rng.Intn((len(vals)+1)/2)
			perm := rng.Perm(len(vals))[:nsel]
			sel := make([]string, nsel)
			for i, p := range perm {
				sel[i] = vals[p]
			}
			sort.Strings(sel)
			preds = append(preds, Predicate{Attr: attr, Values: sel})
		}
		queries[q] = Query{Predicates: preds}
	}
	return queries, nil
}

// pred is a predicate ready to price: a categorical predicate's Values
// become a set once, so membership is a lookup instead of a scan.
type pred struct {
	Predicate
	in map[string]bool
}

func compile(q Query) []pred {
	preds := make([]pred, len(q.Predicates))
	for k, p := range q.Predicates {
		preds[k].Predicate = p
		if len(p.Values) > 0 {
			preds[k].in = make(map[string]bool, len(p.Values))
			for _, s := range p.Values {
				preds[k].in[s] = true
			}
		}
	}
	return preds
}

// priced is one predicate's selectivity per dictionary entry of its
// column, with the column's row codes to read it by.
type priced struct {
	codes []uint32
	sel   []float64
}

// price evaluates each predicate once per distinct value of its column
// in t. A column's dictionary holds only values that occur in it, so a
// value that cannot be priced fails here, whatever the other predicates
// say about its rows.
func price(t *dataset.Table, preds []pred, cell func(dataset.Value, pred) (float64, error)) ([]priced, error) {
	out := make([]priced, len(preds))
	for k, p := range preds {
		j := t.Schema.Index(p.Attr)
		if j < 0 {
			return nil, fmt.Errorf("workload: unknown attribute %q", p.Attr)
		}
		col := t.ColumnVector(j)
		sel := make([]float64, col.Card())
		for c, v := range col.Dict() {
			f, err := cell(v, p)
			if err != nil {
				return nil, err
			}
			sel[c] = f
		}
		out[k] = priced{codes: col.Codes(), sel: sel}
	}
	return out, nil
}

// sum multiplies each row's factors in predicate order, stopping at the
// first zero, and adds the rows in row order.
func sum(rows int, preds []priced) float64 {
	count := 0.0
	for i := 0; i < rows; i++ {
		sel := 1.0
		for _, p := range preds {
			sel *= p.sel[p.codes[i]]
			if sel == 0 {
				break
			}
		}
		count += sel
	}
	return count
}

// trueCount answers the query exactly on the original table.
func trueCount(orig *dataset.Table, preds []pred) (float64, error) {
	ps, err := price(orig, preds, groundSelectivity)
	if err != nil {
		return 0, err
	}
	return sum(orig.Len(), ps), nil
}

func groundSelectivity(v dataset.Value, p pred) (float64, error) {
	if p.in != nil {
		if v.Kind() != dataset.Str {
			return 0, fmt.Errorf("workload: categorical predicate on %v cell", v.Kind())
		}
		if p.in[v.Text()] {
			return 1, nil
		}
		return 0, nil
	}
	if v.Kind() != dataset.Num {
		return 0, fmt.Errorf("workload: numeric predicate on %v cell", v.Kind())
	}
	x := v.Float()
	if x >= p.Lo && x <= p.Hi {
		return 1, nil
	}
	return 0, nil
}

// Estimator answers queries on anonymized tables under the uniformity
// assumption, using the ORIGINAL table's attribute domains to spread fully
// suppressed cells: a '*' could be anyone, so it contributes the
// predicate's share of the whole domain rather than zero.
type Estimator struct {
	taxs    map[string]*hierarchy.Taxonomy
	leaves  map[string][]string   // attr -> its taxonomy's leaves
	numDom  map[string][2]float64 // attr -> observed [lo, hi]
	catVals map[string][]string   // attr -> observed distinct ground values
}

// NewEstimator captures the original table's domains.
func NewEstimator(orig *dataset.Table, taxonomies map[string]*hierarchy.Taxonomy) (*Estimator, error) {
	if orig == nil || orig.Len() == 0 {
		return nil, fmt.Errorf("workload: empty original table")
	}
	e := &Estimator{
		taxs:    taxonomies,
		leaves:  map[string][]string{},
		numDom:  map[string][2]float64{},
		catVals: map[string][]string{},
	}
	for attr, tax := range taxonomies {
		if tax != nil {
			e.leaves[attr] = tax.Leaves()
		}
	}
	for j, attr := range orig.Schema.Attrs {
		if attr.Kind == dataset.Numeric {
			lo, hi, ok := orig.NumericRange(j)
			if ok {
				e.numDom[attr.Name] = [2]float64{lo, hi}
			}
			continue
		}
		for _, v := range orig.ColumnVector(j).Dict() {
			if v.Kind() == dataset.Str {
				e.catVals[attr.Name] = append(e.catVals[attr.Name], v.Text())
			}
		}
	}
	return e, nil
}

// count answers the query on the anonymized table. Each record
// contributes the product over predicates of the overlap fraction between
// its (possibly generalized) cell and the predicate. Every distinct cell
// value of a predicate's column is priced, so a cell the estimator cannot
// price (a Set label without a taxonomy, a kind the predicate does not
// take) fails the count even on a row another predicate already zeroes.
func (e *Estimator) count(anon *dataset.Table, preds []pred) (float64, error) {
	ps, err := price(anon, preds, e.cellSelectivity)
	if err != nil {
		return 0, err
	}
	return sum(anon.Len(), ps), nil
}

// cellSelectivity is the fraction of the cell's region satisfying the
// predicate, under uniformity.
func (e *Estimator) cellSelectivity(v dataset.Value, p pred) (float64, error) {
	if p.in != nil {
		return e.categoricalSelectivity(v, p)
	}
	return e.numericSelectivity(v, p.Predicate)
}

func (e *Estimator) numericSelectivity(v dataset.Value, p Predicate) (float64, error) {
	switch v.Kind() {
	case dataset.Num:
		x := v.Float()
		if x >= p.Lo && x <= p.Hi {
			return 1, nil
		}
		return 0, nil
	case dataset.Interval:
		return intervalOverlap(v.Bounds())(p), nil
	case dataset.Star:
		// Could be anyone in the domain: spread uniformly.
		dom, ok := e.numDom[p.Attr]
		if !ok {
			return 0, nil
		}
		return intervalOverlap(dom[0], dom[1])(p), nil
	default:
		return 0, fmt.Errorf("workload: numeric predicate on %v cell", v.Kind())
	}
}

// intervalOverlap returns a closure computing the fraction of (lo,hi]
// overlapping the predicate's range, under uniformity.
func intervalOverlap(lo, hi float64) func(Predicate) float64 {
	return func(p Predicate) float64 {
		if hi == lo {
			if lo >= p.Lo && lo <= p.Hi {
				return 1
			}
			return 0
		}
		overlap := math.Min(hi, p.Hi) - math.Max(lo, p.Lo)
		if overlap <= 0 {
			return 0
		}
		return overlap / (hi - lo)
	}
}

// listed counts the values the predicate lists.
func listed(vals []string, p pred) int {
	n := 0
	for _, v := range vals {
		if p.in[v] {
			n++
		}
	}
	return n
}

func (e *Estimator) categoricalSelectivity(v dataset.Value, p pred) (float64, error) {
	tax := e.taxs[p.Attr]
	switch v.Kind() {
	case dataset.Str:
		if p.in[v.Text()] {
			return 1, nil
		}
		return 0, nil
	case dataset.Set:
		if tax == nil {
			return 0, fmt.Errorf("workload: Set cell %q needs a taxonomy", v.Text())
		}
		covered := 0
		total := 0
		for _, leaf := range e.leaves[p.Attr] {
			if !tax.CoversValue(v.Text(), leaf) {
				continue
			}
			total++
			if p.in[leaf] {
				covered++
			}
		}
		if total == 0 {
			return 0, fmt.Errorf("workload: Set label %q not in taxonomy", v.Text())
		}
		return float64(covered) / float64(total), nil
	case dataset.Prefix:
		// A masked code matches a listed value when the value falls under
		// the prefix; uniformity over the masked positions.
		matching := 0
		for _, s := range p.Values {
			if v.Covers(dataset.StrVal(s)) {
				matching++
			}
		}
		if matching == 0 {
			return 0, nil
		}
		region := math.Pow(10, float64(v.MaskedLen()))
		f := float64(matching) / region
		if f > 1 {
			f = 1
		}
		return f, nil
	case dataset.Star:
		// Could be any ground value: spread over the taxonomy's leaves
		// when one exists, else over the observed domain.
		if tax != nil {
			leaves := e.leaves[p.Attr]
			if len(leaves) == 0 {
				return 0, nil
			}
			return float64(listed(leaves, p)) / float64(len(leaves)), nil
		}
		if vals := e.catVals[p.Attr]; len(vals) > 0 {
			return float64(listed(vals, p)) / float64(len(vals)), nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("workload: categorical predicate on %v cell", v.Kind())
	}
}

// Report is the accuracy of one anonymization over one workload.
type Report struct {
	// Queries is the workload size.
	Queries int
	// MeanAbsError and MedianAbsError summarize |est − true|.
	MeanAbsError, MedianAbsError float64
	// MeanRelError summarizes |est − true| / max(true, 1).
	MeanRelError float64
	// AbsErrors holds the per-query absolute errors for further analysis.
	AbsErrors []float64
}

// Prepared is a workload bound to its original table: the estimator,
// each query's compiled predicates and the true answers, computed once.
// It is read-only after Prepare, so goroutines may share it to evaluate
// different releases.
type Prepared struct {
	est     *Estimator
	queries [][]pred
	truth   []float64
	rows    int
}

// Prepare does the release-independent part of evaluating a workload.
func Prepare(orig *dataset.Table, queries []Query, taxonomies map[string]*hierarchy.Taxonomy) (*Prepared, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	est, err := NewEstimator(orig, taxonomies)
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		est:     est,
		queries: make([][]pred, len(queries)),
		truth:   make([]float64, len(queries)),
		rows:    orig.Len(),
	}
	for qi, q := range queries {
		p.queries[qi] = compile(q)
		if p.truth[qi], err = trueCount(orig, p.queries[qi]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Evaluate runs the workload against one anonymization of the original
// table.
func (p *Prepared) Evaluate(anon *dataset.Table) (*Report, error) {
	if anon.Len() != p.rows {
		return nil, fmt.Errorf("workload: table size mismatch")
	}
	abs := make([]float64, len(p.queries))
	rel := 0.0
	for qi, q := range p.queries {
		est, err := p.est.count(anon, q)
		if err != nil {
			return nil, err
		}
		abs[qi] = math.Abs(est - p.truth[qi])
		rel += abs[qi] / math.Max(p.truth[qi], 1)
	}
	return &Report{
		Queries:        len(p.queries),
		MeanAbsError:   stats.Mean(abs),
		MedianAbsError: stats.Median(abs),
		MeanRelError:   rel / float64(len(p.queries)),
		AbsErrors:      abs,
	}, nil
}
