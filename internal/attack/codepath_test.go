package attack

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
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
)

// allAlgorithms is the full roster of anonymization algorithms.
func allAlgorithms() []algorithm.Algorithm {
	return []algorithm.Algorithm{
		bottomup.New(), datafly.New(), samarati.New(), incognito.New(),
		ola.New(), optimal.New(), mondrian.New(), mondrian.NewRelaxed(),
		muargus.New(), genetic.New(), genetic.NewConstrained(), topdown.New(),
	}
}

// checkAgainstNaive asserts that the prosecutor, marketer and journalist
// results of the dictionary-code path equal the naive references exactly.
func checkAgainstNaive(t *testing.T, name string, anon, sample, population *dataset.Table, adv *Adversary) {
	t.Helper()
	naive, err := NewAdversary(anon, adv.taxs)
	if err != nil {
		t.Fatal(err)
	}
	wantPros, err := NaiveProsecutorVector(sample, naive)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pros, err := ProsecutorVector(sample, adv)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	equalVectors(t, name+" prosecutor", pros, wantPros)
	wantMarketer := 0.0
	for _, r := range wantPros {
		wantMarketer += r
	}
	wantMarketer /= float64(len(wantPros))
	if m, err := MarketerRisk(sample, adv); err != nil || m != wantMarketer {
		t.Fatalf("%s: marketer risk %v (%v), naive %v", name, m, err, wantMarketer)
	}
	wantJour, err := NaiveJournalistVector(sample, population, naive)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	jour, err := JournalistVector(sample, population, adv)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	equalVectors(t, name+" journalist", jour, wantJour)
}

// TestCodePathMatchesNaiveOnAllAlgorithms pins the dictionary-code
// resolution to the naive references on the releases of every algorithm
// at k ∈ {2, 5, 10}. The population holds the extra draw first and the
// sample second, so its dictionaries number the values in another order
// than the sample's, and it ends with tuples outside every released
// domain, which match no region unless a release suppresses whole rows.
func TestCodePathMatchesNaiveOnAllAlgorithms(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 400
	}
	sample, err := generator.Generate(generator.Config{N: n, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := generator.Generate(generator.Config{N: n, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(extra, sample); err != nil {
		t.Fatal(err)
	}
	alien := []dataset.Value{dataset.NumVal(500), dataset.StrVal("00000"),
		dataset.StrVal("Unschooled"), dataset.StrVal("Unknown"), dataset.StrVal("Flu")}
	for i := 0; i < 3; i++ {
		pc.MustAppend(alien...)
	}
	population := pc.Table()
	qi := sample.Schema.QuasiIdentifiers()
	reordered := false
	for _, j := range qi {
		sd, pd := sample.ColumnVector(j).Dict(), population.ColumnVector(j).Dict()
		for c := 0; c < len(sd) && c < len(pd); c++ {
			reordered = reordered || sd[c].Key() != pd[c].Key()
		}
	}
	if !reordered {
		t.Fatal("fixture lost its shape: population dictionaries in the sample's code order")
	}

	// The naive references dominate the run, so the releases are checked
	// as parallel subtests; the group returns once all of them have.
	var unmatched atomic.Int32
	t.Run("releases", func(t *testing.T) {
		for _, k := range []int{2, 5, 10} {
			cfg := algorithm.Config{
				K: k, Hierarchies: generator.Hierarchies(), MaxSuppression: 0.05,
				Metric: algorithm.MetricLM, Taxonomies: generator.Taxonomies(), Seed: 1,
			}
			for _, alg := range allAlgorithms() {
				name := fmt.Sprintf("%s k=%d", alg.Name(), k)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					r, err := alg.Anonymize(sample, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					adv, err := NewAdversary(r.Table, generator.Taxonomies())
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstNaive(t, name, r.Table, sample, population, adv)
					victim := make([]dataset.Value, len(qi))
					for vi, j := range qi {
						victim[vi] = alien[j]
					}
					if m, err := adv.NaiveMatchSet(victim); err != nil {
						t.Fatal(err)
					} else if len(m) == 0 {
						unmatched.Add(1)
					}
				})
			}
		}
	})
	if unmatched.Load() == 0 {
		t.Fatal("fixture lost its shape: the out-of-domain tuples match a region of every release")
	}
}

// TestCodePathHostileCells pins the resolution where dictionary entries
// and match classes part ways: −0 and +0 are two entries of one column
// that both match an exact-0 cell and an interval ending at 0, a Missing
// ground cell takes the index's generic fallback, and distinct ages
// inside one interval fall into one match class.
func TestCodePathHostileCells(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Zip", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	negZero := math.Copysign(0, -1)
	row := func(age dataset.Value, zip string) []dataset.Value {
		return []dataset.Value{age, dataset.StrVal(zip)}
	}
	num, iv, star := dataset.NumVal, dataset.IntervalVal, dataset.StarVal
	regions := []struct {
		cells  []dataset.Value
		sample [][]dataset.Value
	}{
		{[]dataset.Value{num(0), dataset.StrVal("A")}, [][]dataset.Value{row(num(0), "A"), row(num(negZero), "A")}},
		{[]dataset.Value{iv(-10, 0), dataset.StrVal("A")}, [][]dataset.Value{row(num(-5), "A"), row(num(negZero), "A")}},
		{[]dataset.Value{iv(20, 30), dataset.StrVal("B")}, [][]dataset.Value{row(num(21), "B"), row(num(22), "B"), row(num(25), "B")}},
		{[]dataset.Value{star(), star()}, [][]dataset.Value{row(dataset.Value{}, "C"), row(num(0), "C")}},
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
	for _, p := range [][]dataset.Value{
		row(num(22), "B"), row(num(negZero), "A"), row(dataset.Value{}, "A"),
		row(num(0), "B"), row(num(-10), "A"), row(num(30), "B"),
	} {
		popB.MustAppend(p...)
	}
	if err := popB.AppendTable(sample); err != nil {
		t.Fatal(err)
	}
	population := popB.Table()

	adv, err := NewAdversary(anon, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Guard the fixture: the sample's Age dictionary holds both zeros and
	// a Missing entry, and has more entries than match classes.
	ix, err := adv.ensureIndex(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.resolve(ix, sample, sample.Schema.QuasiIdentifiers())
	if err != nil {
		t.Fatal(err)
	}
	var zeros, missing int
	for _, v := range sample.ColumnVector(0).Dict() {
		if v.Kind() == dataset.Num && v.Float() == 0 {
			zeros++
		}
		if v.Kind() == dataset.Missing {
			missing++
		}
	}
	if zeros != 2 || missing != 1 || len(res.classes[0]) >= sample.ColumnVector(0).Card() {
		t.Fatalf("fixture lost its shape: %d zero entries, %d missing, %d classes for %d entries",
			zeros, missing, len(res.classes[0]), sample.ColumnVector(0).Card())
	}

	checkAgainstNaive(t, "hostile", anon, sample, population, adv)
	qi := sample.Schema.QuasiIdentifiers()
	for i := 0; i < population.Len(); i++ {
		victim := victimOf(population, qi, i)
		got, err := adv.MatchSet(victim)
		if err != nil {
			t.Fatal(err)
		}
		want, err := adv.NaiveMatchSet(victim)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("victim %v: MatchSet %v, naive %v", victim, got, want)
		}
	}
}

// reorderTable copies t into a table whose schema lists t's attributes in
// the given order; kinds overrides the kind of named attributes.
func reorderTable(t *testing.T, tab *dataset.Table, order []int, kinds map[string]dataset.AttrKind) *dataset.Table {
	t.Helper()
	attrs := make([]dataset.Attribute, len(order))
	for i, j := range order {
		attrs[i] = tab.Schema.Attrs[j]
		if k, ok := kinds[attrs[i].Name]; ok {
			attrs[i].Kind = k
		}
	}
	c := dataset.NewColumnar(dataset.MustSchema(attrs...))
	for r := 0; r < tab.Len(); r++ {
		row := make([]dataset.Value, len(order))
		for i, j := range order {
			row[i] = tab.At(r, j)
		}
		c.MustAppend(row...)
	}
	return c.Table()
}

// TestAttackRejectsMismatchedQI pins the quasi-identifier check: an
// original, sample or population whose QI attributes differ from the
// release's in order, kind or count is refused with an error naming the
// first mismatch, while one that only places its columns elsewhere is
// attacked on its own positions.
func TestAttackRejectsMismatchedQI(t *testing.T) {
	sample, err := generator.Generate(generator.Config{N: 300, Seed: 95})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := generator.Generate(generator.Config{N: 300, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(sample, extra); err != nil {
		t.Fatal(err)
	}
	population := pc.Table()
	r, err := datafly.New().Anonymize(sample, algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(), MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdversary(r.Table, generator.Taxonomies())
	if err != nil {
		t.Fatal(err)
	}
	// Schema: Age, ZipCode, Education, MaritalStatus, Disease.
	swapped := []int{0, 1, 3, 2, 4}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"swapped population", func() error {
			_, err := JournalistVector(sample, reorderTable(t, population, swapped, nil), adv)
			return err
		}, `population quasi-identifier 3 is categorical "MaritalStatus", release has categorical "Education"`},
		{"swapped population, naive", func() error {
			_, err := NaiveJournalistVector(sample, reorderTable(t, population, swapped, nil), adv)
			return err
		}, `population quasi-identifier 3`},
		{"swapped sample", func() error {
			_, err := JournalistVector(reorderTable(t, sample, swapped, nil), population, adv)
			return err
		}, `sample quasi-identifier 3`},
		{"swapped original", func() error {
			_, err := ProsecutorVector(reorderTable(t, sample, swapped, nil), adv)
			return err
		}, `original quasi-identifier 3`},
		{"swapped original, naive", func() error {
			_, err := NaiveProsecutorVector(reorderTable(t, sample, swapped, nil), adv)
			return err
		}, `original quasi-identifier 3`},
		{"categorical age", func() error {
			_, err := ProsecutorVector(reorderTable(t, sample, []int{0, 1, 2, 3, 4},
				map[string]dataset.AttrKind{"Age": dataset.Categorical}), adv)
			return err
		}, `original quasi-identifier 1 is categorical "Age", release has numeric "Age"`},
		{"missing quasi-identifier", func() error {
			_, err := ProsecutorVector(reorderTable(t, sample, []int{0, 1, 2, 4}, nil), adv)
			return err
		}, `original has 3 quasi-identifiers, release has 4`},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// The sensitive column first moves every QI one position right; the
	// attack reads each table on its own positions.
	moved := []int{4, 0, 1, 2, 3}
	want, err := JournalistVector(sample, population, adv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := JournalistVector(reorderTable(t, sample, moved, nil), reorderTable(t, population, moved, nil), adv)
	if err != nil {
		t.Fatal(err)
	}
	equalVectors(t, "moved columns journalist", got, want)
	wantPros, err := ProsecutorVector(sample, adv)
	if err != nil {
		t.Fatal(err)
	}
	gotPros, err := ProsecutorVector(reorderTable(t, sample, moved, nil), adv)
	if err != nil {
		t.Fatal(err)
	}
	equalVectors(t, "moved columns prosecutor", gotPros, wantPros)
}
