package attack

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
)

// For GLOBAL recodings the empirical linkage risk must equal the analytic
// re-identification vector 1/|class|: every victim matches exactly their
// own equivalence class (full-domain recoding maps distinct signatures to
// distinct regions... unless two generalized regions coincide, in which
// case the match set merges classes and risk can only DROP). For LOCAL
// recodings (Mondrian) regions may overlap in value space, so the match
// set is a superset of the class — risk <= 1/|class| always.
func TestLinkageRiskVsReidentificationVector(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 400, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	for _, alg := range []algorithm.Algorithm{datafly.New(), optimal.New(), mondrian.New()} {
		r, err := alg.Anonymize(tab, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		adv, err := NewAdversary(r.Table, generator.Taxonomies())
		if err != nil {
			t.Fatal(err)
		}
		linkage, err := ProsecutorVector(tab, adv)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i := range linkage {
			if analytic := 1 / float64(r.Partition.Size(i)); linkage[i] > analytic+1e-12 {
				t.Fatalf("%s: tuple %d linkage risk %v exceeds analytic 1/|class| %v",
					alg.Name(), i, linkage[i], analytic)
			}
		}
		// The gap between linkage and analytic risk is explained by rows
		// outside the victim's class whose regions also cover the victim
		// (fully suppressed rows match everyone; numeric boundaries
		// coincide). Verify the explanation exactly on a sample: the
		// match set must contain the victim's whole class, and every
		// extra member's region must cover the victim.
		qi := tab.Schema.QuasiIdentifiers()
		for i := 0; i < 40; i++ {
			victim := victimOf(tab, qi, i)
			matches, err := adv.MatchSet(victim)
			if err != nil {
				t.Fatal(err)
			}
			inMatch := map[int]bool{}
			for _, m := range matches {
				inMatch[m] = true
			}
			for _, classmate := range r.Partition.Classes[r.Partition.ClassOf[i]] {
				if !inMatch[classmate] {
					t.Fatalf("%s: victim %d's classmate %d missing from match set", alg.Name(), i, classmate)
				}
			}
			for _, m := range matches {
				for vi, j := range qi {
					if !adv.covers(r.Table.At(m, j), victim[vi], tab.Schema.Attrs[j]) {
						t.Fatalf("%s: match %d does not actually cover victim %d", alg.Name(), m, i)
					}
				}
			}
		}
	}
}

// equalVectors asserts byte-identical floats — the indexed pipeline must
// reproduce the naive one exactly, not approximately.
func equalVectors(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d elements, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, naive says %v", name, i, got[i], want[i])
		}
	}
}

// TestIndexedMatchesNaiveOnCensusSuite pins the indexed prosecutor and
// journalist vectors to the naive references on real anonymizations of the
// census generator — global and local recodings alike.
func TestIndexedMatchesNaiveOnCensusSuite(t *testing.T) {
	sample, err := generator.Generate(generator.Config{N: 250, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := generator.Generate(generator.Config{N: 250, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(sample, extra); err != nil {
		t.Fatal(err)
	}
	population := pc.Table()
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	for _, alg := range []algorithm.Algorithm{datafly.New(), optimal.New(), mondrian.New()} {
		r, err := alg.Anonymize(sample, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		adv, err := NewAdversary(r.Table, generator.Taxonomies())
		if err != nil {
			t.Fatal(err)
		}
		pros, err := ProsecutorVector(sample, adv)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		naivePros, err := NaiveProsecutorVector(sample, adv)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		equalVectors(t, alg.Name()+" prosecutor", pros, naivePros)
		jour, err := JournalistVector(sample, population, adv)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		naiveJour, err := NaiveJournalistVector(sample, population, adv)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		equalVectors(t, alg.Name()+" journalist", jour, naiveJour)
		m, err := MarketerRisk(sample, adv)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, p := range naivePros {
			want += p
		}
		want /= float64(len(naivePros))
		if m != want {
			t.Fatalf("%s: marketer risk %v, naive mean %v", alg.Name(), m, want)
		}
		if adv.index.n == 0 || adv.ins.regionsProbed.Value() == 0 || adv.ins.cacheMisses.Value() == 0 {
			t.Fatalf("%s: counters not populated: %d regions, %d probed, %d misses",
				alg.Name(), adv.index.n, adv.ins.regionsProbed.Value(), adv.ins.cacheMisses.Value())
		}
	}
}

// TestVectorsSameAtAnyGOMAXPROCS pins the victim-level fan-out: the
// prosecutor and journalist vectors computed on one worker and on four
// both equal the naive reference.
func TestVectorsSameAtAnyGOMAXPROCS(t *testing.T) {
	sample, err := generator.Generate(generator.Config{N: 300, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := generator.Generate(generator.Config{N: 300, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(sample, extra); err != nil {
		t.Fatal(err)
	}
	population := pc.Table()
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	r, err := mondrian.New().Anonymize(sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	naiveAdv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	naivePros, err := NaiveProsecutorVector(sample, naiveAdv)
	if err != nil {
		t.Fatal(err)
	}
	naiveJour, err := NaiveJournalistVector(sample, population, naiveAdv)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			adv, err := NewAdversary(r.Table, generator.Taxonomies())
			if err != nil {
				t.Fatal(err)
			}
			pros, err := ProsecutorVector(sample, adv)
			if err != nil {
				t.Fatal(err)
			}
			equalVectors(t, fmt.Sprintf("GOMAXPROCS=%d prosecutor", procs), pros, naivePros)
			jour, err := JournalistVector(sample, population, adv)
			if err != nil {
				t.Fatal(err)
			}
			equalVectors(t, fmt.Sprintf("GOMAXPROCS=%d journalist", procs), jour, naiveJour)
		}()
	}
}

// TestRandomizedIndexedVsNaive quick-checks the index against the naive
// matcher on synthetic anonymized tables mixing every generalized cell
// kind, with victims biased to interval endpoints, region prefixes, ±0 and
// out-of-taxonomy labels — the places a lookup structure can silently
// diverge from the covers predicate.
func TestRandomizedIndexedVsNaive(t *testing.T) {
	tax := hierarchy.MustTaxonomy("Marital", hierarchy.N("Any",
		hierarchy.N("Married", hierarchy.N("MarriedCiv"), hierarchy.N("MarriedMil")),
		hierarchy.N("NotMarried", hierarchy.N("Single"), hierarchy.N("Widowed"), hierarchy.N("Divorced")),
	))
	taxs := map[string]*hierarchy.Taxonomy{"Marital": tax}
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Zip", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Marital", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	endpoints := []float64{0, 5, 10, 15, 20, 25, 30}
	zips := []string{"13053", "13068", "14850", "1305"}
	leaves := tax.Leaves()
	rng := rand.New(rand.NewSource(9))

	ageCell := func() dataset.Value {
		switch rng.Intn(3) {
		case 0:
			return dataset.NumVal(endpoints[rng.Intn(len(endpoints))] * sign(rng))
		case 1:
			i := rng.Intn(len(endpoints))
			j := i + rng.Intn(len(endpoints)-i)
			return dataset.IntervalVal(endpoints[i], endpoints[j])
		default:
			return dataset.StarVal()
		}
	}
	zipCell := func() dataset.Value {
		z := zips[rng.Intn(len(zips))]
		switch rng.Intn(3) {
		case 0:
			return dataset.StrVal(z)
		case 1:
			k := rng.Intn(len(z) + 1)
			return dataset.PrefixVal(z[:k], len(z)-k)
		default:
			return dataset.StarVal()
		}
	}
	maritalCell := func() dataset.Value {
		switch rng.Intn(3) {
		case 0:
			return dataset.StrVal(leaves[rng.Intn(len(leaves))])
		case 1:
			labels := []string{"Married", "NotMarried", "Any", "*"}
			return dataset.SetVal(labels[rng.Intn(len(labels))])
		default:
			return dataset.StarVal()
		}
	}
	ageGround := func() dataset.Value {
		e := endpoints[rng.Intn(len(endpoints))]
		switch rng.Intn(4) {
		case 0:
			return dataset.NumVal(e)
		case 1:
			return dataset.NumVal(e + 1)
		case 2:
			return dataset.NumVal(e - 1)
		default:
			return dataset.NumVal(math.Copysign(0, -1)) // -0 vs +0 cells
		}
	}
	zipGround := func() dataset.Value {
		if rng.Intn(4) == 0 {
			return dataset.StrVal("99999")
		}
		return dataset.StrVal(zips[rng.Intn(len(zips))])
	}
	maritalGround := func() dataset.Value {
		if rng.Intn(4) == 0 {
			return dataset.StrVal("Alien") // outside the taxonomy
		}
		return dataset.StrVal(leaves[rng.Intn(len(leaves))])
	}

	for trial := 0; trial < 30; trial++ {
		anonB := dataset.NewColumnar(schema)
		regions := 2 + rng.Intn(10)
		for r := 0; r < regions; r++ {
			cells := []dataset.Value{ageCell(), zipCell(), maritalCell()}
			if r == 0 {
				// One fully suppressed region guarantees every victim a
				// nonempty match set, as the risk vectors require.
				cells = []dataset.Value{dataset.StarVal(), dataset.StarVal(), dataset.StarVal()}
			}
			for size := 1 + rng.Intn(3); size > 0; size-- {
				anonB.MustAppend(cells...)
			}
		}
		anon := anonB.Table()
		origB := dataset.NewColumnar(schema)
		for i := 0; i < anon.Len(); i++ {
			origB.MustAppend(ageGround(), zipGround(), maritalGround())
		}
		orig := origB.Table()
		popB := dataset.NewColumnar(schema)
		if err := popB.AppendTable(orig); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < anon.Len(); i++ {
			popB.MustAppend(ageGround(), zipGround(), maritalGround())
		}
		population := popB.Table()

		adv, err := NewAdversary(anon, taxs)
		if err != nil {
			t.Fatal(err)
		}
		qi := schema.QuasiIdentifiers()
		for i := 0; i < orig.Len(); i++ {
			victim := victimOf(orig, qi, i)
			indexed, err := adv.MatchSet(victim)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := adv.NaiveMatchSet(victim)
			if err != nil {
				t.Fatal(err)
			}
			if len(indexed) != len(naive) {
				t.Fatalf("trial %d victim %v: indexed matches %v, naive %v", trial, victim, indexed, naive)
			}
			for j := range indexed {
				if indexed[j] != naive[j] {
					t.Fatalf("trial %d victim %v: indexed matches %v, naive %v", trial, victim, indexed, naive)
				}
			}
		}
		// Exotic victim kinds exercise the generic per-cell fallback.
		for _, victim := range [][]dataset.Value{
			{dataset.IntervalVal(5, 15), dataset.PrefixVal("130", 2), dataset.SetVal("Married")},
			{dataset.StarVal(), dataset.StarVal(), dataset.StarVal()},
			{dataset.Value{}, dataset.StrVal("13053"), dataset.Value{}},
		} {
			indexed, err := adv.MatchSet(victim)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := adv.NaiveMatchSet(victim)
			if err != nil {
				t.Fatal(err)
			}
			if len(indexed) != len(naive) {
				t.Fatalf("trial %d exotic victim %v: indexed %v, naive %v", trial, victim, indexed, naive)
			}
			for j := range indexed {
				if indexed[j] != naive[j] {
					t.Fatalf("trial %d exotic victim %v: indexed %v, naive %v", trial, victim, indexed, naive)
				}
			}
		}
		pros, err := ProsecutorVector(orig, adv)
		if err != nil {
			t.Fatal(err)
		}
		naivePros, err := NaiveProsecutorVector(orig, adv)
		if err != nil {
			t.Fatal(err)
		}
		equalVectors(t, "randomized prosecutor", pros, naivePros)
		jour, err := JournalistVector(orig, population, adv)
		if err != nil {
			t.Fatal(err)
		}
		naiveJour, err := NaiveJournalistVector(orig, population, adv)
		if err != nil {
			t.Fatal(err)
		}
		equalVectors(t, "randomized journalist", jour, naiveJour)
	}
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// TestParallelVectorCancellation verifies the parallel fan-out honors
// context cancellation and that a cancelled run does not poison the
// adversary for later use.
func TestParallelVectorCancellation(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 200, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	r, err := mondrian.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProsecutorVectorContext(ctx, tab, adv); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled prosecutor returned %v, want context.Canceled", err)
	}
	if _, err := JournalistVectorContext(ctx, tab, tab, adv); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled journalist returned %v, want context.Canceled", err)
	}
	if _, _, err := TargetedRiskContext(ctx, tab, adv, []int{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled targeted risk returned %v, want context.Canceled", err)
	}
	// The adversary stays fully usable afterward.
	risk, err := ProsecutorVectorContext(context.Background(), tab, adv)
	if err != nil {
		t.Fatalf("post-cancel prosecutor failed: %v", err)
	}
	if len(risk) != tab.Len() {
		t.Fatalf("post-cancel vector has %d elements, want %d", len(risk), tab.Len())
	}
}

// TestProsecutorVectorCache verifies the per-table prosecutor cache:
// repeated calls return equal values in fresh slices, and the dependent
// measures resolve no new victim signatures.
func TestProsecutorVectorCache(t *testing.T) {
	tab, err := generator.Generate(generator.Config{N: 150, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 4, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	r, err := datafly.New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	first, err := ProsecutorVector(tab, adv)
	if err != nil {
		t.Fatal(err)
	}
	misses := adv.ins.cacheMisses.Value()
	first[0] = 1e9 // callers own their copy; the cache must not see this
	second, err := ProsecutorVector(tab, adv)
	if err != nil {
		t.Fatal(err)
	}
	if second[0] == 1e9 {
		t.Fatal("cached prosecutor vector shares memory with a caller")
	}
	if _, _, err := TargetedRiskContext(context.Background(), tab, adv, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := MarketerRisk(tab, adv); err != nil {
		t.Fatal(err)
	}
	if got := adv.ins.cacheMisses.Value(); got != misses {
		t.Fatalf("dependent measures resolved %d new signatures, want 0", got-misses)
	}
}

// TestJournalistMultiRegionSets pins the journalist sweep's multi-region
// path on a hand-made release: closed interval hulls share endpoints, so
// population tuples on a boundary match two or three regions; two distinct
// ground tuples match the same pair of regions through suppressed cells;
// and one region matches no population tuple at all, which sends its
// victims to the prosecutor fallback.
func TestJournalistMultiRegionSets(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Zip", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	row := func(age float64, zip string) []dataset.Value {
		return []dataset.Value{dataset.NumVal(age), dataset.StrVal(zip)}
	}
	iv := dataset.IntervalVal
	regions := []struct {
		cells  []dataset.Value
		sample [][]dataset.Value
	}{
		{[]dataset.Value{iv(20, 30), dataset.StrVal("A")}, [][]dataset.Value{row(25, "A"), row(30, "A")}},
		{[]dataset.Value{iv(30, 40), dataset.StrVal("A")}, [][]dataset.Value{row(35, "A"), row(40, "A")}},
		{[]dataset.Value{iv(40, 50), dataset.StrVal("A")}, [][]dataset.Value{row(45, "A"), row(50, "A")}},
		{[]dataset.Value{dataset.NumVal(30), dataset.StrVal("A")}, [][]dataset.Value{row(30, "A")}},
		{[]dataset.Value{iv(20, 40), dataset.StrVal("B")}, [][]dataset.Value{row(20, "B"), row(40, "B")}},
		{[]dataset.Value{iv(80, 90), dataset.StarVal()}, [][]dataset.Value{row(80, "E"), row(85, "F")}},
		{[]dataset.Value{iv(85, 95), dataset.StarVal()}, [][]dataset.Value{row(95, "E"), row(90, "G")}},
		// No population tuple falls in this region.
		{[]dataset.Value{iv(60, 70), dataset.StrVal("C")}, [][]dataset.Value{row(60, "C"), row(70, "C")}},
	}
	anonB, sampleB := dataset.NewColumnar(schema), dataset.NewColumnar(schema)
	for _, r := range regions {
		for _, s := range r.sample {
			anonB.MustAppend(r.cells...)
			sampleB.MustAppend(s...)
		}
	}
	anon, sample := anonB.Table(), sampleB.Table()
	popB := dataset.NewColumnar(schema)
	for _, p := range []struct {
		row   []dataset.Value
		times int
	}{
		{row(30, "A"), 3}, // regions 0, 1 and 3
		{row(40, "A"), 2}, // regions 1 and 2
		{row(20, "A"), 1}, {row(25, "A"), 2}, {row(45, "A"), 1}, {row(50, "A"), 1},
		{row(30, "B"), 1}, {row(40, "B"), 2},
		{row(88, "A"), 1}, {row(88, "B"), 2}, // regions 5 and 6 through suppressed Zip cells
		{row(82, "Q"), 1}, {row(93, "Q"), 1},
		{row(99, "A"), 1}, {row(30, "C"), 1}, // no region
	} {
		for i := 0; i < p.times; i++ {
			popB.MustAppend(p.row...)
		}
	}
	population := popB.Table()

	// Guard the fixture: some population group must match several regions,
	// two groups the same several, and some region must match none.
	adv, err := NewAdversary(anon, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := adv.ensureIndex(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pop, err := adv.resolve(ix, population, population.Schema.QuasiIdentifiers())
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[int]bool)
	multiSets := make(map[string]int)
	for g := 0; g < pop.groups(); g++ {
		var regs []int
		pop.eachRegion(g, func(r int) {
			hit[r] = true
			regs = append(regs, r)
		})
		if len(regs) >= 2 {
			multiSets[fmt.Sprint(regs)]++
		}
	}
	shared := false
	for _, n := range multiSets {
		shared = shared || n >= 2
	}
	if len(multiSets) < 2 || !shared || len(hit) != adv.index.n-1 {
		t.Fatalf("fixture lost its shape: %d multi-region sets (shared %v), %d of %d regions hit",
			len(multiSets), shared, len(hit), adv.index.n)
	}

	want, err := NaiveJournalistVector(sample, population, adv)
	if err != nil {
		t.Fatal(err)
	}
	if last := want[len(want)-1]; last != 0.5 {
		t.Fatalf("victim of the unmatched region: naive risk %v, want the prosecutor fallback 1/2", last)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			adv, err := NewAdversary(anon, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := JournalistVector(sample, population, adv)
			if err != nil {
				t.Fatal(err)
			}
			equalVectors(t, fmt.Sprintf("GOMAXPROCS=%d journalist", procs), got, want)
		}()
	}
}
