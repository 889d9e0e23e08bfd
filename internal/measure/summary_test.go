package measure

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
)

func TestSummarizePaperT3a(t *testing.T) {
	s, err := Summarize(ctx(t, paperdata.T3a()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 10 || s.Classes != 3 || s.KAnonymity != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.DistinctL != 2 {
		t.Errorf("distinct ℓ = %d, want 2", s.DistinctL)
	}
	if s.Discernibility != 34 { // 3²+3²+4²
		t.Errorf("DM = %v, want 34", s.Discernibility)
	}
	if s.ClassSizeMin != 3 || s.ClassSizeMax != 4 || s.ClassSizeMedian != 3 {
		t.Errorf("class-size sketch = %+v", s)
	}
	if s.ClassSizeGini <= 0 || s.ClassSizeGini >= 1 {
		t.Errorf("Gini = %v", s.ClassSizeGini)
	}
	if s.LossMetric <= 0 || s.LossMetric >= 1 {
		t.Errorf("LM = %v", s.LossMetric)
	}
}

func TestSummaryJSONShape(t *testing.T) {
	s, err := Summarize(ctx(t, paperdata.T3b()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"\"rows\":", "\"k_anonymity\":", "\"loss_metric\":",
		"\"class_size_gini\":", "\"discernibility\":",
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %s: %s", key, raw)
		}
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.KAnonymity != s.KAnonymity || back.LossMetric != s.LossMetric {
		t.Error("JSON round trip changed values")
	}
}

func TestSummarizeWithoutSensitive(t *testing.T) {
	// A sensitive-free schema yields a summary with the diversity fields
	// zeroed but everything else intact.
	orig := paperdata.T1()
	orig.Schema.Attrs[2].Role = 0 // demote MaritalStatus to insensitive
	anon := paperdata.T3a()
	anon.Schema.Attrs[2].Role = 0
	c, err := NewContext(orig, anon, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.DistinctL != 0 || s.EntropyL != 0 || s.TCloseness != 0 {
		t.Errorf("diversity fields should be zero: %+v", s)
	}
	if s.KAnonymity != 3 {
		t.Errorf("k = %d", s.KAnonymity)
	}
}

// TestSummarizeMatchesDirectDefinitions pins Summarize's diversity fields,
// read from the context's shared histograms, bit for bit to the direct
// definitions on real releases; t is checked against a reference that
// rescans the column for every class, under both ground metrics.
func TestSummarizeMatchesDirectDefinitions(t *testing.T) {
	orig, err := generator.Generate(generator.Config{N: 3000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(), Taxonomies: generator.Taxonomies(),
		MaxSuppression: 0.05, Metric: algorithm.MetricLM,
	}
	sens := orig.Column(orig.Schema.SensitiveIndex())
	for _, alg := range []algorithm.Algorithm{datafly.New(), optimal.New(), mondrian.New(), samarati.New()} {
		r, err := alg.Anonymize(orig, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		c, err := NewContext(orig, r.Table, generator.Taxonomies())
		if err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(c)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		p := c.Partition
		dl, el := referenceL(p, sens)
		if s.DistinctL != dl || math.Float64bits(s.EntropyL) != math.Float64bits(el) {
			t.Errorf("%s: summary ℓ = (%d, %v), per-class rescan (%d, %v)", alg.Name(), s.DistinctL, s.EntropyL, dl, el)
		}
		if want := referenceTCloseness(p, sens, false); math.Float64bits(s.TCloseness) != math.Float64bits(want) {
			t.Errorf("%s: summary t = %v, per-class rescan %v", alg.Name(), s.TCloseness, want)
		}
		for _, j := range []int{orig.Schema.SensitiveIndex(), orig.Schema.Index("Age")} {
			col, vec := orig.Column(j), orig.ColumnVector(j)
			h, err := p.Histograms(vec)
			if err != nil {
				t.Fatal(err)
			}
			for _, ordered := range []bool{false, true} {
				got, err := privacy.TCloseness(h, privacy.NewSupport(vec, ordered))
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceTCloseness(p, col, ordered); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: t (ordered=%v) = %v, per-class rescan %v", alg.Name(), ordered, got, want)
				}
			}
		}
	}
}

// referenceL is distinct and entropy ℓ by their definitions: each class's
// values tallied from its rows by Value.Key.
func referenceL(p *eqclass.Partition, col []dataset.Value) (distinct int, entropy float64) {
	distinct, entropy = math.MaxInt, math.Inf(1)
	for _, rows := range p.Classes {
		m := map[string]int{}
		for _, r := range rows {
			m[col[r].Key()]++
		}
		var counts []int
		for _, c := range m {
			counts = append(counts, c)
		}
		distinct = min(distinct, len(m))
		entropy = math.Min(entropy, privacy.EntropyL(counts))
	}
	return distinct, entropy
}

// referenceTCloseness is t-closeness by its definition: every class
// distribution is tallied from the class's rows over the canonical order of
// all the column's values (numeric order for an ordered all-number column,
// else lexicographic) and compared with the column's own.
func referenceTCloseness(p *eqclass.Partition, col []dataset.Value, ordered bool) float64 {
	seen := map[string]bool{}
	nums := map[string]float64{}
	var keys []string
	numeric := true
	for _, v := range col {
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
			if v.Kind() == dataset.Num {
				nums[k] = v.Float()
			} else {
				numeric = false
			}
		}
	}
	if ordered && numeric {
		sort.Slice(keys, func(i, j int) bool { return nums[keys[i]] < nums[keys[j]] })
	} else {
		sort.Strings(keys)
	}
	pos := map[string]int{}
	for i, k := range keys {
		pos[k] = i
	}
	distribution := func(rows []int) []float64 {
		d := make([]float64, len(keys))
		total := 0.0
		for _, r := range rows {
			d[pos[col[r].Key()]]++
			total++
		}
		for i := range d {
			d[i] /= total
		}
		return d
	}
	all := make([]int, len(col))
	for i := range all {
		all[i] = i
	}
	global := distribution(all)
	worst := 0.0
	for _, rows := range p.Classes {
		if d := privacy.EMD(distribution(rows), global, ordered); d > worst {
			worst = d
		}
	}
	return worst
}
