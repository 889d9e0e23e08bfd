package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/bottomup"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/algorithm/topdown"
	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/paperdata"
	"microdata/internal/stats"
)

// one compiles a single predicate, for the per-cell selectivity tests.
func one(p Predicate) pred { return compile(Query{Predicates: []Predicate{p}})[0] }

// evaluate runs the workload against one anonymization, preparing it
// first.
func evaluate(orig, anon *dataset.Table, queries []Query, taxonomies map[string]*hierarchy.Taxonomy) (*Report, error) {
	p, err := Prepare(orig, queries, taxonomies)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(anon)
}

// refTrueCount is the per-row reference for trueCount: every row prices
// every predicate on its own cell.
func refTrueCount(orig *dataset.Table, q Query) (float64, error) {
	preds := compile(q)
	count := 0.0
	for i := 0; i < orig.Len(); i++ {
		sel := 1.0
		for _, p := range preds {
			j := orig.Schema.Index(p.Attr)
			if j < 0 {
				return 0, fmt.Errorf("workload: unknown attribute %q", p.Attr)
			}
			f, err := groundSelectivity(orig.At(i, j), p)
			if err != nil {
				return 0, err
			}
			sel *= f
		}
		count += sel
	}
	return count, nil
}

// refCount is the per-row reference for Estimator.count: a row stops
// pricing at its first zero factor, so cells after it are never looked at.
func refCount(e *Estimator, anon *dataset.Table, q Query) (float64, error) {
	preds := compile(q)
	count := 0.0
	for i := 0; i < anon.Len(); i++ {
		sel := 1.0
		for _, p := range preds {
			j := anon.Schema.Index(p.Attr)
			if j < 0 {
				return 0, fmt.Errorf("workload: unknown attribute %q", p.Attr)
			}
			f, err := e.cellSelectivity(anon.At(i, j), p)
			if err != nil {
				return 0, err
			}
			sel *= f
			if sel == 0 {
				break
			}
		}
		count += sel
	}
	return count, nil
}

// refEvaluate is the per-release reference for Evaluate: it rebuilds the
// estimator and every true answer for the one release.
func refEvaluate(orig, anon *dataset.Table, queries []Query, taxonomies map[string]*hierarchy.Taxonomy) (*Report, error) {
	e, err := NewEstimator(orig, taxonomies)
	if err != nil {
		return nil, err
	}
	truth := make([]float64, len(queries))
	est := make([]float64, len(queries))
	for qi, q := range queries {
		if truth[qi], err = refTrueCount(orig, q); err != nil {
			return nil, err
		}
		if est[qi], err = refCount(e, anon, q); err != nil {
			return nil, err
		}
	}
	return refReport(truth, est), nil
}

// refReport summarizes per-query true and estimated answers.
func refReport(truth, est []float64) *Report {
	abs := make([]float64, len(truth))
	rel := 0.0
	for qi := range truth {
		abs[qi] = math.Abs(est[qi] - truth[qi])
		rel += abs[qi] / math.Max(truth[qi], 1)
	}
	return &Report{
		Queries:        len(truth),
		MeanAbsError:   stats.Mean(abs),
		MedianAbsError: stats.Median(abs),
		MeanRelError:   rel / float64(len(truth)),
		AbsErrors:      abs,
	}
}

// sameBits reports whether two reports hold the same float64 bits.
func sameBits(a, b *Report) bool {
	if a.Queries != b.Queries || len(a.AbsErrors) != len(b.AbsErrors) {
		return false
	}
	for _, p := range [][2]float64{
		{a.MeanAbsError, b.MeanAbsError},
		{a.MedianAbsError, b.MedianAbsError},
		{a.MeanRelError, b.MeanRelError},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	for i := range a.AbsErrors {
		if math.Float64bits(a.AbsErrors[i]) != math.Float64bits(b.AbsErrors[i]) {
			return false
		}
	}
	return true
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs1, err := Generate(tab, Config{Queries: 50, Predicates: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs2, err := Generate(tab, Config{Queries: 50, Predicates: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs1) != 50 {
		t.Fatalf("generated %d queries", len(qs1))
	}
	for i := range qs1 {
		if len(qs1[i].Predicates) != 2 {
			t.Fatalf("query %d has %d predicates", i, len(qs1[i].Predicates))
		}
		for j := range qs1[i].Predicates {
			p1, p2 := qs1[i].Predicates[j], qs2[i].Predicates[j]
			if p1.Attr != p2.Attr || p1.Lo != p2.Lo || p1.Hi != p2.Hi || len(p1.Values) != len(p2.Values) {
				t.Fatal("workload not deterministic")
			}
		}
	}
	// Predicate count clamps to the QI width.
	qs, err := Generate(tab, Config{Queries: 5, Predicates: 99, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[0].Predicates) != len(tab.Schema.QuasiIdentifiers()) {
		t.Errorf("predicates not clamped: %d", len(qs[0].Predicates))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, Config{}); err == nil {
		t.Error("nil table should fail")
	}
	empty := dataset.NewColumnar(paperdata.Schema()).Table()
	if _, err := Generate(empty, Config{}); err == nil {
		t.Error("empty table should fail")
	}
	noQI := dataset.NewColumnar(dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.Sensitive}))
	noQI.MustAppend(dataset.StrVal("x"))
	if _, err := Generate(noQI.Table(), Config{}); err == nil {
		t.Error("no-QI table should fail")
	}
}

func TestTrueCountOnPaperTable(t *testing.T) {
	orig := paperdata.T1()
	// Ages 35..50 inclusive: 41, 39, 50, 49, 42, 47 -> 6 tuples.
	q := Query{Predicates: []Predicate{{Attr: "Age", Lo: 35, Hi: 50}}}
	got, err := trueCount(orig, compile(q))
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("true count = %v, want 6", got)
	}
	// Conjunction: zip in {13250,13253} AND age 45..55 -> tuples 5,6,7,10.
	q2 := Query{Predicates: []Predicate{
		{Attr: "ZipCode", Values: []string{"13250", "13253"}},
		{Attr: "Age", Lo: 45, Hi: 55},
	}}
	got, err = trueCount(orig, compile(q2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("conjunctive true count = %v, want 4", got)
	}
	bad := Query{Predicates: []Predicate{{Attr: "Nope", Lo: 0, Hi: 1}}}
	if _, err := trueCount(orig, compile(bad)); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestEstimateOnIdentityIsExact(t *testing.T) {
	orig := paperdata.T1()
	queries, err := Generate(orig, Config{Queries: 40, Predicates: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := evaluate(orig, orig, queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanAbsError != 0 || rep.MedianAbsError != 0 || rep.MeanRelError != 0 {
		t.Errorf("identity anonymization should answer exactly: %+v", rep)
	}
}

func testEstimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := NewEstimator(paperdata.T1(), map[string]*hierarchy.Taxonomy{"MaritalStatus": paperdata.MaritalTaxonomy()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIntervalSelectivityUniformity(t *testing.T) {
	e := testEstimator(t)
	// A record generalized to (20,40] contributes 0.5 to a query over
	// 20..30 (half the region).
	got, err := e.numericSelectivity(dataset.IntervalVal(20, 40), Predicate{Attr: "Age", Lo: 20, Hi: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("selectivity = %v, want 0.5", got)
	}
	// Disjoint region contributes 0.
	got, _ = e.numericSelectivity(dataset.IntervalVal(20, 40), Predicate{Attr: "Age", Lo: 50, Hi: 60})
	if got != 0 {
		t.Errorf("disjoint selectivity = %v", got)
	}
	// Star spreads over the observed domain (T1 ages 26..55): a query
	// covering the whole domain gets 1, half of it ~0.5.
	got, _ = e.numericSelectivity(dataset.StarVal(), Predicate{Attr: "Age", Lo: 0, Hi: 100})
	if got != 1 {
		t.Errorf("star full-domain selectivity = %v, want 1", got)
	}
	got, _ = e.numericSelectivity(dataset.StarVal(), Predicate{Attr: "Age", Lo: 26, Hi: 40.5})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("star half-domain selectivity = %v, want 0.5", got)
	}
	// Degenerate single-point interval.
	got, _ = e.numericSelectivity(dataset.IntervalVal(30, 30), Predicate{Attr: "Age", Lo: 20, Hi: 40})
	if got != 1 {
		t.Errorf("degenerate interval selectivity = %v", got)
	}
}

func TestSetSelectivityUsesTaxonomy(t *testing.T) {
	e := testEstimator(t)
	// "Not Married" covers 4 leaves; predicate lists 2 of them -> 0.5.
	got, err := e.categoricalSelectivity(dataset.SetVal("Not Married"),
		one(Predicate{Attr: "MaritalStatus", Values: []string{"Divorced", "Separated"}}))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Errorf("set selectivity = %v, want 0.5", got)
	}
	if _, err := e.categoricalSelectivity(dataset.SetVal("Married"), one(Predicate{Attr: "ZipCode", Values: []string{"x"}})); err == nil {
		t.Error("set without taxonomy should fail")
	}
	if _, err := e.categoricalSelectivity(dataset.SetVal("Bogus"), one(Predicate{Attr: "MaritalStatus", Values: []string{"x"}})); err == nil {
		t.Error("unknown set label should fail")
	}
	// Star with a taxonomy spreads over its 6 leaves.
	got, err = e.categoricalSelectivity(dataset.StarVal(), one(Predicate{Attr: "MaritalStatus", Values: []string{"Divorced", "Separated", "CF-Spouse"}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("star taxonomy selectivity = %v, want 0.5", got)
	}
	// Star without a taxonomy spreads over the observed domain values
	// (T1 has 6 distinct zips; 3 listed -> 0.5).
	got, err = e.categoricalSelectivity(dataset.StarVal(), one(Predicate{Attr: "ZipCode", Values: []string{"13053", "13268", "13253"}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("star domain selectivity = %v, want 0.5", got)
	}
}

func TestPrefixSelectivity(t *testing.T) {
	e := testEstimator(t)
	// 1305* covers a region of 10 codes; one listed value inside -> 0.1.
	got, err := e.categoricalSelectivity(dataset.PrefixVal("1305", 1),
		one(Predicate{Attr: "ZipCode", Values: []string{"13053", "99999"}}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("prefix selectivity = %v, want 0.1", got)
	}
	got, _ = e.categoricalSelectivity(dataset.PrefixVal("1305", 1), one(Predicate{Attr: "ZipCode", Values: []string{"99999"}}))
	if got != 0 {
		t.Errorf("non-matching prefix selectivity = %v", got)
	}
}

func TestMondrianBeatsGlobalRecodingOnWorkload(t *testing.T) {
	// The LeFevre motivation, reproduced: multidimensional local recoding
	// answers multi-attribute range counts more accurately than single-
	// node global recoding at the same k.
	tab, err := generator.Generate(generator.Config{N: 600, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 10, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	mond, err := mondrian.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	glob, err := datafly.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := Generate(tab, Config{Queries: 80, Predicates: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	repM, err := evaluate(tab, mond.Table, queries, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	repG, err := evaluate(tab, glob.Table, queries, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean abs error: mondrian %.2f vs datafly %.2f", repM.MeanAbsError, repG.MeanAbsError)
	if repM.MeanAbsError >= repG.MeanAbsError {
		t.Errorf("mondrian error %v should beat global recoding %v (LeFevre shape)", repM.MeanAbsError, repG.MeanAbsError)
	}
}

func TestEvaluateErrors(t *testing.T) {
	orig := paperdata.T1()
	if _, err := evaluate(orig, orig, nil, nil); err == nil {
		t.Error("empty workload should fail")
	}
	full, sb := paperdata.T1(), dataset.NewColumnar(paperdata.Schema())
	for i := 0; i < 4; i++ {
		sb.MustAppend(full.At(i, 0), full.At(i, 1), full.At(i, 2))
	}
	short := sb.Table()
	qs, _ := Generate(orig, Config{Queries: 3, Seed: 1})
	if _, err := evaluate(orig, short, qs, nil); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestGenerateRejectsCategoricalWithoutGroundValues(t *testing.T) {
	// A categorical QI whose every cell is generalized has no ground value
	// to draw a predicate from.
	schema := dataset.MustSchema(dataset.Attribute{Name: "Zip", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier})
	for _, v := range []dataset.Value{dataset.StarVal(), dataset.SetVal("Any"), dataset.PrefixVal("130", 2)} {
		tab := dataset.NewColumnar(schema)
		tab.MustAppend(v)
		if _, err := Generate(tab.Table(), Config{Queries: 3, Seed: 1}); err == nil {
			t.Errorf("all-%v column should fail", v.Kind())
		}
	}
}

// censusReleases anonymizes a census draw of N=1000 with the experiment
// roster (internal/experiment's suite) at k=10, as E18 does.
func censusReleases(t *testing.T) (*dataset.Table, []*dataset.Table) {
	t.Helper()
	tab, err := generator.Generate(generator.Config{N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K:              10,
		Hierarchies:    generator.Hierarchies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Taxonomies:     generator.Taxonomies(),
		Seed:           1,
	}
	algs := []algorithm.Algorithm{
		bottomup.New(), datafly.New(), samarati.New(), incognito.New(),
		optimal.New(), mondrian.New(), mondrian.NewRelaxed(), muargus.New(),
		ola.New(), genetic.New(), topdown.New(),
	}
	var releases []*dataset.Table
	for _, alg := range algs {
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		releases = append(releases, r.Table)
	}
	return tab, releases
}

func TestDictionaryPricingMatchesPerRowReference(t *testing.T) {
	tab, releases := censusReleases(t)
	taxs := generator.Taxonomies()
	kinds := map[dataset.ValueKind]bool{}
	for _, rel := range releases {
		for _, j := range rel.Schema.QuasiIdentifiers() {
			for _, v := range rel.ColumnVector(j).Dict() {
				kinds[v.Kind()] = true
			}
		}
	}
	for _, k := range []dataset.ValueKind{dataset.Str, dataset.Set, dataset.Prefix, dataset.Interval, dataset.Star} {
		if !kinds[k] {
			t.Errorf("no release holds a %v cell", k)
		}
	}
	e, err := NewEstimator(tab, taxs)
	if err != nil {
		t.Fatal(err)
	}
	for npred := 1; npred <= 3; npred++ {
		queries, err := Generate(tab, Config{Queries: 40, Predicates: npred, Seed: int64(npred)})
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(tab, queries, taxs)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]float64, len(queries))
		for qi, q := range queries {
			got, err := trueCount(tab, compile(q))
			if err != nil {
				t.Fatal(err)
			}
			if truth[qi], err = refTrueCount(tab, q); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(truth[qi]) {
				t.Fatalf("%d predicates, query %d: TrueCount %v, reference %v", npred, qi, got, truth[qi])
			}
		}
		for ri, rel := range releases {
			est := make([]float64, len(queries))
			for qi, q := range queries {
				got, err := e.count(rel, compile(q))
				if err != nil {
					t.Fatal(err)
				}
				if est[qi], err = refCount(e, rel, q); err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(est[qi]) {
					t.Fatalf("%d predicates, release %d, query %d: Count %v, reference %v", npred, ri, qi, got, est[qi])
				}
			}
			got, err := prep.Evaluate(rel)
			if err != nil {
				t.Fatal(err)
			}
			if want := refReport(truth, est); !sameBits(got, want) {
				t.Errorf("%d predicates, release %d: Prepared.Evaluate %+v, reference %+v", npred, ri, got, want)
			}
		}
	}
}

func TestCountPricesCellsOfZeroedRows(t *testing.T) {
	// The row's Age misses the range, so the per-row reference never
	// prices its MaritalStatus cell, a Set label with no taxonomy to
	// resolve it. Pricing by dictionary entry reaches that cell anyway
	// and fails loudly instead of skipping it.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	origB := dataset.NewColumnar(schema)
	origB.MustAppend(dataset.NumVal(30), dataset.StrVal("Married"))
	anonB := dataset.NewColumnar(schema)
	anonB.MustAppend(dataset.NumVal(30), dataset.SetVal("Not Married"))
	orig, anon := origB.Table(), anonB.Table()
	q := Query{Predicates: []Predicate{
		{Attr: "Age", Lo: 50, Hi: 60},
		{Attr: "MaritalStatus", Values: []string{"Married"}},
	}}
	e, err := NewEstimator(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := refCount(e, anon, q); err != nil || got != 0 {
		t.Fatalf("reference = %v, %v; want 0, nil", got, err)
	}
	if _, err := e.count(anon, compile(q)); err == nil {
		t.Error("Count should fail on the unpriceable Set cell")
	}
	if _, err := evaluate(orig, anon, []Query{q}, nil); err == nil {
		t.Error("Evaluate should fail on the unpriceable Set cell")
	}
}

func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	taxs := generator.Taxonomies()
	var releases []*dataset.Table
	for _, k := range []int{2, 3, 5, 10} {
		cfg := algorithm.Config{K: k, Hierarchies: generator.Hierarchies(), MaxSuppression: 0.05, Taxonomies: taxs}
		for _, alg := range []algorithm.Algorithm{datafly.New(), mondrian.New()} {
			r, err := alg.Anonymize(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			releases = append(releases, r.Table)
		}
	}
	queries, err := Generate(tab, Config{Queries: 30, Predicates: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(tab, queries, taxs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Report, len(releases))
	errs := make([]error, len(releases))
	var wg sync.WaitGroup
	for i := range releases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = prep.Evaluate(releases[i])
		}(i)
	}
	wg.Wait()
	for i, rel := range releases {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := refEvaluate(tab, rel, queries, taxs)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got[i], want) {
			t.Errorf("release %d: concurrent report %+v, reference %+v", i, got[i], want)
		}
	}
}
