package utility_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
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
	"microdata/internal/hierarchy"
	"microdata/internal/utility"
)

// allAlgorithms is the full roster of twelve algorithms.
func allAlgorithms() []algorithm.Algorithm {
	return []algorithm.Algorithm{
		bottomup.New(), datafly.New(), samarati.New(), incognito.New(),
		ola.New(), optimal.New(), mondrian.New(), mondrian.NewRelaxed(),
		muargus.New(), genetic.New(), genetic.NewConstrained(), topdown.New(),
	}
}

// TestLossMatchesReferenceOnReleases pins the per-code loss path to the
// row-path reference bit for bit, on the releases of every algorithm.
func TestLossMatchesReferenceOnReleases(t *testing.T) {
	for _, k := range []int{2, 5, 10} {
		orig, cfg, err := algtest.CensusConfig(2000, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		lc := utility.LossConfig{Taxonomies: cfg.Taxonomies}
		for _, alg := range allAlgorithms() {
			r, err := alg.Anonymize(orig, cfg)
			if err != nil {
				t.Fatalf("%s k=%d: %v", alg.Name(), k, err)
			}
			label := fmt.Sprintf("%s k=%d", alg.Name(), k)
			got, err := utility.LossVector(r.Table, orig, lc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := utility.ReferenceLossVector(r.Table, orig, lc)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: loss[%d] = %v, reference %v", label, i, got[i], want[i])
				}
			}
			lm, err := utility.GeneralLossMetric(r.Table, orig, lc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantLM, err := utility.ReferenceGeneralLossMetric(r.Table, orig, lc)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if math.Float64bits(lm) != math.Float64bits(wantLM) {
				t.Fatalf("%s: LM = %v, reference %v", label, lm, wantLM)
			}
		}
	}
}

// TestLossErrorNamesFirstUnscoreableRow holds both paths to the same
// error on a Set cell no taxonomy leaf matches: the first such row in row
// order is named, even when its code is not the column's first.
func TestLossErrorNamesFirstUnscoreableRow(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	tax := hierarchy.MustTaxonomy("MaritalStatus", hierarchy.N("*",
		hierarchy.N("Married", hierarchy.N("CF-Spouse"), hierarchy.N("Spouse Present")),
		hierarchy.N("Not Married", hierarchy.N("Separated"), hierarchy.N("Divorced")),
	))
	lc := utility.LossConfig{Taxonomies: map[string]*hierarchy.Taxonomy{"MaritalStatus": tax}}
	const bad = 5
	origB, anonB := dataset.NewColumnar(schema), dataset.NewColumnar(schema)
	for i := 0; i < 9; i++ {
		origB.MustAppend(dataset.NumVal(float64(20+i)), dataset.StrVal("Divorced"))
		set := "Married"
		switch {
		case i == bad:
			set = "Unknown" // not in the taxonomy
		case i > bad:
			set = "Widowed" // nor this
		case i%2 == 1:
			set = "Not Married"
		}
		anonB.MustAppend(dataset.IntervalVal(20, 30), dataset.SetVal(set))
	}
	orig, anon := origB.Table(), anonB.Table()
	_, err := utility.LossVector(anon, orig, lc)
	_, refErr := utility.ReferenceLossVector(anon, orig, lc)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("LossVector error %v, reference %v", err, refErr)
	}
	if want := fmt.Sprintf("row %d:", bad); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	_, err = utility.GeneralLossMetric(anon, orig, lc)
	_, refErr = utility.ReferenceGeneralLossMetric(anon, orig, lc)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("GeneralLossMetric error %v, reference %v", err, refErr)
	}
}

var (
	release1MOnce sync.Once
	release1M     struct {
		orig, anon *dataset.Table
		cfg        utility.LossConfig
		err        error
	}
)

// datafly1M returns an N=1M census draw and its k=5 datafly release.
func datafly1M(b *testing.B) (orig, anon *dataset.Table, cfg utility.LossConfig) {
	b.Helper()
	release1MOnce.Do(func() {
		tab, acfg, err := algtest.CensusConfig(1_000_000, 5, 1)
		if err != nil {
			release1M.err = err
			return
		}
		r, err := datafly.New().Anonymize(tab, acfg)
		release1M.orig, release1M.err = tab, err
		if err == nil {
			release1M.anon = r.Table
		}
		release1M.cfg = utility.LossConfig{Taxonomies: acfg.Taxonomies}
	})
	if release1M.err != nil {
		b.Fatal(release1M.err)
	}
	return release1M.orig, release1M.anon, release1M.cfg
}

var lossSink float64

func BenchmarkLossVector(b *testing.B) {
	orig, anon, cfg := datafly1M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := utility.LossVector(anon, orig, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lossSink = v[0]
	}
}

func BenchmarkGeneralLossMetric(b *testing.B) {
	orig, anon, cfg := datafly1M(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm, err := utility.GeneralLossMetric(anon, orig, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lossSink = lm
	}
}
