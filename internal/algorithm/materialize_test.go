package algorithm_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/algtest"
	"microdata/internal/algorithm/bottomup"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/algorithm/topdown"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/freqset"
)

// rowPath is the row-path reference for global recodings of one table:
// every cell generalized on its own through the hierarchies, and
// partitions grouped by per-row signature strings. It shares no code with
// the dictionary-code path. Generalized cells are memoized per node.
type rowPath struct {
	orig  *dataset.Table
	cfg   algorithm.Config
	cells map[string][][]dataset.Value
}

// generalized returns the table's rows generalized to the node.
func (rp *rowPath) generalized(t *testing.T, node []int) [][]dataset.Value {
	t.Helper()
	if rows, ok := rp.cells[fmt.Sprint(node)]; ok {
		return rows
	}
	level := make([]int, rp.orig.Schema.Len())
	for li, j := range rp.orig.Schema.QuasiIdentifiers() {
		level[j] = node[li]
	}
	rows := make([][]dataset.Value, rp.orig.Len())
	for i := range rows {
		rows[i] = make([]dataset.Value, rp.orig.Schema.Len())
		for j, a := range rp.orig.Schema.Attrs {
			v := rp.orig.At(i, j)
			if a.Role == dataset.QuasiIdentifier {
				g, err := rp.cfg.Hierarchies[a.Name].Generalize(v, level[j])
				if err != nil {
					t.Fatal(err)
				}
				v = g
			}
			rows[i][j] = v
		}
	}
	rp.cells[fmt.Sprint(node)] = rows
	return rows
}

// release returns the node's rows with the suppressed rows' quasi-
// identifiers starred, and their signature partition.
func (rp *rowPath) release(t *testing.T, node []int, suppressed []int) ([][]dataset.Value, *eqclass.Partition) {
	t.Helper()
	rows := rp.generalized(t, node)
	if len(suppressed) > 0 {
		rows = append([][]dataset.Value(nil), rows...)
		for _, i := range suppressed {
			rows[i] = append([]dataset.Value(nil), rows[i]...)
			for _, j := range rp.orig.Schema.QuasiIdentifiers() {
				rows[i][j] = dataset.StarVal()
			}
		}
	}
	// Group rows by signature, classes in first-appearance order.
	index := map[string]int{}
	var groups [][]int
	var sig strings.Builder
	for i, row := range rows {
		sig.Reset()
		for _, j := range rp.orig.Schema.QuasiIdentifiers() {
			sig.WriteString(row[j].Key())
			sig.WriteByte('\x1f')
		}
		g, ok := index[sig.String()]
		if !ok {
			g = len(groups)
			index[sig.String()] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	p, err := eqclass.FromGroups(len(rows), groups)
	if err != nil {
		t.Fatal(err)
	}
	return rows, p
}

// suppressed returns the rows of the classes violating the configuration
// at the node: what FinishGlobal suppresses.
func (rp *rowPath) suppressed(t *testing.T, cfg algorithm.Config, node []int) []int {
	t.Helper()
	_, p := rp.release(t, node, nil)
	bad, err := algorithm.ViolatingClasses(p, rp.orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	for ci, b := range bad {
		if b {
			rows = append(rows, p.Classes[ci]...)
		}
	}
	sort.Ints(rows)
	return rows
}

// checkRelease asserts that a release matches its reference cell by cell
// (by Key), that its partition is element-identical to the reference's,
// and that every column's dictionary is in first-appearance row order.
func checkRelease(t *testing.T, label string, r *algorithm.Result, rows [][]dataset.Value, want *eqclass.Partition) {
	t.Helper()
	for j := range r.Table.Schema.Attrs {
		col := r.Table.ColumnVector(j)
		next := uint32(0)
		for i, row := range rows {
			code := col.Code(i)
			if got, k := col.DictKeys()[code], row[j].Key(); got != k {
				t.Fatalf("%s: cell (%d,%d) = %q, reference %q", label, i, j, got, k)
			}
			switch {
			case code == next:
				next++
			case code > next:
				t.Fatalf("%s: column %d dictionary is not in first-appearance order", label, j)
			}
		}
		if int(next) != col.Card() {
			t.Fatalf("%s: column %d has %d dictionary entries, rows use %d", label, j, col.Card(), next)
		}
	}
	if !samePartition(r.Partition, want) {
		t.Fatalf("%s: partition differs from the row-path reference", label)
	}
}

func samePartition(a, b *eqclass.Partition) bool {
	if len(a.Classes) != len(b.Classes) || len(a.ClassOf) != len(b.ClassOf) {
		return false
	}
	for i := range a.ClassOf {
		if a.ClassOf[i] != b.ClassOf[i] {
			return false
		}
	}
	for ci, rows := range a.Classes {
		if len(rows) != len(b.Classes[ci]) {
			return false
		}
		for x, r := range rows {
			if b.Classes[ci][x] != r {
				return false
			}
		}
	}
	return true
}

// TestCodeMaterializedReleasesMatchRowPath pins every global-recoding
// algorithm's release, built from dictionary codes, to the row-path
// reference on census draws, with and without secondary constraints. The
// algorithms share one frequency-set store per draw, so the releases also
// pin hub roll-ups made by concurrent engine workers on a shared store.
func TestCodeMaterializedReleasesMatchRowPath(t *testing.T) {
	algs := []algorithm.Algorithm{
		datafly.New(), samarati.New(), incognito.New(), ola.New(), optimal.New(),
		topdown.New(), bottomup.New(), genetic.New(), muargus.New(),
	}
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	constraints := map[string]func(*algorithm.Config){
		"k only": func(*algorithm.Config) {},
		"l=2":    func(c *algorithm.Config) { c.MinLDiversity = 2 },
		"t=0.3":  func(c *algorithm.Config) { c.MaxTCloseness = 0.3 },
	}
	released := map[string]int{}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			for _, k := range []int{2, 5, 10} {
				orig, base, err := algtest.CensusConfig(n, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				// One store per table, shared by every algorithm and
				// constraint, as the experiment runner shares it.
				base.Store = freqset.New(orig, base.Hierarchies, base.Taxonomies)
				rp := &rowPath{orig: orig, cfg: base, cells: map[string][][]dataset.Value{}}
				for cname, constrain := range constraints {
					cfg := base
					constrain(&cfg)
					for _, alg := range algs {
						r, err := alg.Anonymize(orig, cfg)
						if err != nil {
							continue // no release to compare (μ-Argus rejects ℓ and t)
						}
						label := fmt.Sprintf("%s N=%d seed=%d k=%d %s", alg.Name(), n, seed, k, cname)
						suppressed := r.Suppressed
						if alg.Name() != muargus.New().Name() {
							// μ-Argus picks its own outliers; every other
							// algorithm suppresses the violating classes.
							suppressed = rp.suppressed(t, cfg, r.Levels)
							if fmt.Sprint(r.Suppressed) != fmt.Sprint(suppressed) {
								t.Fatalf("%s: suppressed %v, reference %v", label, r.Suppressed, suppressed)
							}
						}
						rows, p := rp.release(t, r.Levels, suppressed)
						checkRelease(t, label, r, rows, p)
						released[alg.Name()]++
					}
				}
			}
		}
	}
	for _, alg := range algs {
		if released[alg.Name()] == 0 {
			t.Errorf("%s released nothing to compare", alg.Name())
		}
	}
}
