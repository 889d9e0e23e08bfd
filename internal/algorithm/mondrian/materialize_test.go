package mondrian

import (
	"fmt"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
)

// TestCodeMaterializedReleaseMatchesRowPath pins the region-coded release
// to the row path it replaced: each region's generalized value written
// into every one of its rows. Every cell must agree by Key, and every
// column's dictionary must be in first-appearance row order.
func TestCodeMaterializedReleaseMatchesRowPath(t *testing.T) {
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	constraints := map[string]func(*algorithm.Config){
		"k only": func(*algorithm.Config) {},
		"l=2":    func(c *algorithm.Config) { c.MinLDiversity = 2 },
		"t=0.3":  func(c *algorithm.Config) { c.MaxTCloseness = 0.3 },
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 5, 10} {
				orig, base, err := algtest.CensusConfig(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				for cname, constrain := range constraints {
					cfg := base
					constrain(&cfg)
					for _, m := range []*Mondrian{New(), NewRelaxed()} {
						label := fmt.Sprintf("%s N=%d seed=%d k=%d %s", m.Name(), n, seed, k, cname)
						checkReleaseMatchesRowPath(t, label, m, orig, cfg)
					}
				}
			}
		}
	}
}

// checkReleaseMatchesRowPath anonymizes orig and compares the release
// with refGeneralizeRegion applied to every region of its partition, rows
// in partition order (the region tests pin that order to the reference).
// When the row path fails on some region, the release must fail the same
// way.
func checkReleaseMatchesRowPath(t *testing.T, label string, m *Mondrian, orig *dataset.Table, cfg algorithm.Config) {
	t.Helper()
	regions, err := codeRegions(m, orig, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := make([][]string, orig.Len())
	for i := range want {
		want[i] = make([]string, orig.Schema.Len())
		for j := range want[i] {
			want[i][j] = orig.At(i, j).Key()
		}
	}
	var refErr error
	for _, j := range orig.Schema.QuasiIdentifiers() {
		for _, region := range regions {
			v, err := refGeneralizeRegion(orig, j, region, cfg)
			if err != nil {
				refErr = fmt.Errorf("mondrian: %w", err)
				break
			}
			for _, i := range region {
				want[i][j] = v.Key()
			}
		}
		if refErr != nil {
			break
		}
	}
	r, err := m.Anonymize(orig, cfg)
	if refErr != nil {
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("%s: release error %v, row path %v", label, err, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for j := range orig.Schema.Attrs {
		col := r.Table.ColumnVector(j)
		next := uint32(0)
		for i := range want {
			code := col.Code(i)
			if got := col.DictKeys()[code]; got != want[i][j] {
				t.Fatalf("%s: cell (%d,%d) = %q, reference %q", label, i, j, got, want[i][j])
			}
			if code > next {
				t.Fatalf("%s: column %d dictionary is not in first-appearance order", label, j)
			} else if code == next {
				next++
			}
		}
		if int(next) != col.Card() {
			t.Fatalf("%s: column %d has %d dictionary entries, rows use %d", label, j, col.Card(), next)
		}
	}
}
