package utility

import (
	"math"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
)

func schema3(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
}

func maritalTax(t *testing.T) *hierarchy.Taxonomy {
	t.Helper()
	return hierarchy.MustTaxonomy("MaritalStatus", hierarchy.N("*",
		hierarchy.N("Married", hierarchy.N("CF-Spouse"), hierarchy.N("Spouse Present")),
		hierarchy.N("Not Married", hierarchy.N("Separated"), hierarchy.N("Never Married"), hierarchy.N("Divorced"), hierarchy.N("Spouse Absent")),
	))
}

func TestCellLoss(t *testing.T) {
	attr := dataset.Attribute{Name: "Age", Kind: dataset.Numeric}
	cases := []struct {
		name string
		anon dataset.Value
		want float64
	}{
		{"exact num", dataset.NumVal(28), 0},
		{"exact str", dataset.StrVal("x"), 0},
		{"star", dataset.StarVal(), 1},
		{"interval", dataset.IntervalVal(25, 35), 10.0 / 29},
		{"interval clamped", dataset.IntervalVal(0, 100), 1},
		{"prefix", dataset.PrefixVal("1305", 1), 0.2},
	}
	for _, c := range cases {
		got, err := CellLoss(c.anon, dataset.NumVal(28), attr, 26, 55, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: loss = %v, want %v", c.name, got, c.want)
		}
	}
	// Degenerate numeric domain: interval loss saturates at 1.
	got, err := CellLoss(dataset.IntervalVal(1, 2), dataset.NumVal(1), attr, 5, 5, nil)
	if err != nil || got != 1 {
		t.Errorf("degenerate domain: %v, %v", got, err)
	}
}

func TestCellLossSet(t *testing.T) {
	tax := maritalTax(t)
	attr := dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical}
	got, err := CellLoss(dataset.SetVal("Married"), dataset.StrVal("CF-Spouse"), attr, 0, 0, tax)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-12 { // (2-1)/(6-1)
		t.Errorf("Married loss = %v, want 0.2", got)
	}
	got, err = CellLoss(dataset.SetVal("Not Married"), dataset.StrVal("Divorced"), attr, 0, 0, tax)
	if err != nil || math.Abs(got-0.6) > 1e-12 { // (4-1)/(6-1)
		t.Errorf("Not Married loss = %v, %v; want 0.6", got, err)
	}
	if _, err := CellLoss(dataset.SetVal("Married"), dataset.StrVal("CF-Spouse"), attr, 0, 0, nil); err == nil {
		t.Error("missing taxonomy should fail")
	}
	if _, err := CellLoss(dataset.SetVal("Nonexistent"), dataset.StrVal("CF-Spouse"), attr, 0, 0, tax); err == nil {
		t.Error("unknown set label should fail")
	}
}

// Build T1's QI columns and a generalized variant at given zip/age levels.
func t1Table(t *testing.T) *dataset.Table {
	t.Helper()
	c := dataset.NewColumnar(schema3(t))
	rows := []struct {
		zip     string
		age     float64
		marital string
	}{
		{"13053", 28, "CF-Spouse"}, {"13268", 41, "Separated"},
		{"13268", 39, "Never Married"}, {"13053", 26, "CF-Spouse"},
		{"13253", 50, "Divorced"}, {"13253", 55, "Spouse Absent"},
		{"13250", 49, "Divorced"}, {"13052", 31, "Spouse Present"},
		{"13269", 42, "Separated"}, {"13250", 47, "Separated"},
	}
	for _, r := range rows {
		c.MustAppend(dataset.StrVal(r.zip), dataset.NumVal(r.age), dataset.StrVal(r.marital))
	}
	return c.Table()
}

func hierSet(t *testing.T) hierarchy.Set {
	t.Helper()
	return hierarchy.MustSet(
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 10, Origin: 5},
			hierarchy.IntervalLevel{Width: 20, Origin: 15},
			hierarchy.IntervalLevel{Width: 20, Origin: 0},
		),
	)
}

func TestLossVectorT3aShape(t *testing.T) {
	orig := t1Table(t)
	anon, err := hierarchy.GeneralizeTable(orig, hierSet(t), []int{1, 1}) // T3a levels
	if err != nil {
		t.Fatal(err)
	}
	loss, err := LossVector(anon, orig, LossConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple: zip masked 1 of 5 (0.2) + age width 10 / (55-26) dom.
	want := 0.2 + 10.0/29
	for i, l := range loss {
		if math.Abs(l-want) > 1e-12 {
			t.Fatalf("loss[%d] = %v, want %v", i, l, want)
		}
	}
	// T3b levels are strictly lossier.
	anonB, err := hierarchy.GeneralizeTable(orig, hierSet(t), []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	lossB, err := LossVector(anonB, orig, LossConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range loss {
		if lossB[i] <= loss[i] {
			t.Fatalf("T3b loss %v should exceed T3a loss %v", lossB[i], loss[i])
		}
	}
}

func TestUtilityVectorOrientation(t *testing.T) {
	orig := t1Table(t)
	anon, _ := hierarchy.GeneralizeTable(orig, hierSet(t), []int{1, 1})
	u, err := UtilityVector(anon, orig, LossConfig{})
	if err != nil {
		t.Fatal(err)
	}
	loss, _ := LossVector(anon, orig, LossConfig{})
	for i := range u {
		if math.Abs(u[i]-(2-loss[i])) > 1e-12 {
			t.Fatalf("utility[%d] = %v, loss = %v", i, u[i], loss[i])
		}
	}
	// Identity anonymization has full utility.
	id, _ := hierarchy.GeneralizeTable(orig, hierSet(t), []int{0, 0})
	uid, _ := UtilityVector(id, orig, LossConfig{})
	for _, v := range uid {
		if v != 2 {
			t.Fatalf("identity utility = %v, want 2", v)
		}
	}
}

func TestLossVectorErrors(t *testing.T) {
	orig := t1Table(t)
	anon, _ := hierarchy.GeneralizeTable(orig, hierSet(t), []int{1, 1})
	short := dataset.NewColumnar(anon.Schema)
	for i := 0; i < 5; i++ {
		short.MustAppend(anon.At(i, 0), anon.At(i, 1), anon.At(i, 2))
	}
	if _, err := LossVector(short.Table(), orig, LossConfig{}); err == nil {
		t.Error("row-count mismatch should fail")
	}
	noQIB := dataset.NewColumnar(dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.Sensitive}))
	noQIB.MustAppend(dataset.StrVal("x"))
	noQI := noQIB.Table()
	if _, err := LossVector(noQI, noQI, LossConfig{}); err == nil {
		t.Error("no-QI table should fail")
	}
	wide := dataset.NewColumnar(dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.QuasiIdentifier}))
	for i := 0; i < orig.Len(); i++ {
		wide.MustAppend(dataset.StrVal("x"))
	}
	if _, err := LossVector(wide.Table(), orig, LossConfig{}); err == nil {
		t.Error("schema width mismatch should fail")
	}
}

func TestGeneralLossMetric(t *testing.T) {
	orig := t1Table(t)
	anon, _ := hierarchy.GeneralizeTable(orig, hierSet(t), []int{1, 1})
	lm, err := GeneralLossMetric(anon, orig, LossConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := (0.2 + 10.0/29) / 2
	if math.Abs(lm-want) > 1e-12 {
		t.Errorf("LM = %v, want %v", lm, want)
	}
	// Full suppression: LM = 1.
	top, _ := hierarchy.GeneralizeTable(orig, hierSet(t), []int{5, 4})
	lm, _ = GeneralLossMetric(top, orig, LossConfig{})
	if lm != 1 {
		t.Errorf("full-suppression LM = %v, want 1", lm)
	}
	empty := dataset.NewColumnar(schema3(t)).Table()
	if _, err := GeneralLossMetric(empty, empty, LossConfig{}); err == nil {
		t.Error("empty table should fail")
	}
}

// TestLossTallySumIsExact pins the exact summation behind LM: ten cells
// of loss 0.1 sum to exactly 1 (a running float sum gives
// 0.9999999999999999), the result does not depend on how the cells were
// counted, and huge counts do not lose the small terms.
func TestLossTallySumIsExact(t *testing.T) {
	naive := 0.0
	for i := 0; i < 10; i++ {
		naive += 0.1
	}
	if naive == 1 {
		t.Fatal("the float64 running sum of ten 0.1s is expected to miss 1")
	}
	tally := LossTally{}
	tally.Add(0.1, 10)
	if got := tally.Sum(); got != 1 {
		t.Errorf("tally of ten 0.1s = %v, want exactly 1", got)
	}
	split := LossTally{}
	for i := 0; i < 10; i++ {
		split.Add(0.1, 1)
	}
	split.Add(0.7, 0)
	if len(split) != 1 || split.Sum() != tally.Sum() {
		t.Errorf("one-by-one tally %v (%d keys) != counted tally %v", split.Sum(), len(split), tally.Sum())
	}
	// Adding 0.5 to 2^53 one cell at a time rounds back to 2^53 each
	// time; the exact sum keeps all four halves.
	big := LossTally{}
	big.Add(1, 1<<53)
	big.Add(0.5, 4)
	if got, want := big.Sum(), float64(1<<53)+2; got != want {
		t.Errorf("2^53 + 4·0.5 = %v, want %v", got, want)
	}
	if (LossTally{}).Sum() != 0 {
		t.Error("empty tally must sum to 0")
	}
}

func TestDiscernibilityMetric(t *testing.T) {
	// T3a: 3² + 3² + 4² = 34; T3b: 3² + 7² = 58; T4: 4² + 6² = 52.
	p3a, _ := eqclass.FromGroups(10, [][]int{{0, 3, 7}, {1, 2, 8}, {4, 5, 6, 9}})
	p3b, _ := eqclass.FromGroups(10, [][]int{{0, 3, 7}, {1, 2, 4, 5, 6, 8, 9}})
	p4, _ := eqclass.FromGroups(10, [][]int{{0, 2, 3, 7}, {1, 4, 5, 6, 8, 9}})
	for _, tc := range []struct {
		name string
		p    *eqclass.Partition
		want float64
	}{
		{"T3a", p3a, 34}, {"T3b", p3b, 58}, {"T4", p4, 52},
	} {
		if got := DiscernibilityMetric(tc.p); got != tc.want {
			t.Errorf("DM(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	vec := DiscernibilityVector(p3a)
	if vec[0] != 3 || vec[4] != 4 {
		t.Errorf("DM vector = %v", vec)
	}
}

func TestAverageClassSizeMetric(t *testing.T) {
	p3a, _ := eqclass.FromGroups(10, [][]int{{0, 3, 7}, {1, 2, 8}, {4, 5, 6, 9}})
	got, err := AverageClassSizeMetric(p3a, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := (10.0 / 3) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("C_avg = %v, want %v", got, want)
	}
	if _, err := AverageClassSizeMetric(p3a, 0); err == nil {
		t.Error("k=0 should fail")
	}
	empty, _ := eqclass.FromGroups(0, nil)
	if _, err := AverageClassSizeMetric(empty, 3); err == nil {
		t.Error("empty partition should fail")
	}
}

func TestPrecision(t *testing.T) {
	s := schema3(t)
	hs := hierSet(t)
	// T3a levels: zip 1/5, age 1/4 -> Prec = 1 - (0.2+0.25)/2 = 0.775.
	got, err := Precision(s, hs, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.775) > 1e-12 {
		t.Errorf("Prec(T3a) = %v, want 0.775", got)
	}
	// Identity: 1. Top: 0.
	if got, _ := Precision(s, hs, []int{0, 0}); got != 1 {
		t.Errorf("Prec(identity) = %v", got)
	}
	if got, _ := Precision(s, hs, []int{5, 4}); got != 0 {
		t.Errorf("Prec(top) = %v", got)
	}
	if _, err := Precision(s, hs, []int{1}); err == nil {
		t.Error("level-count mismatch should fail")
	}
	if _, err := Precision(s, hs, []int{9, 1}); err == nil {
		t.Error("out-of-range level should fail")
	}
	missing := hierarchy.MustSet(hierarchy.MustPrefixMask("ZipCode", 5, 10))
	if _, err := Precision(s, missing, []int{1, 1}); err == nil {
		t.Error("missing hierarchy should fail")
	}
	noQI := dataset.MustSchema(dataset.Attribute{Name: "A", Role: dataset.Sensitive})
	if _, err := Precision(noQI, hs, nil); err == nil {
		t.Error("no quasi-identifiers should fail")
	}
}

func TestLossVectorWithTaxonomyColumn(t *testing.T) {
	// A schema where the categorical QI generalizes through a taxonomy.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
	)
	origB := dataset.NewColumnar(schema)
	origB.MustAppend(dataset.StrVal("CF-Spouse"))
	origB.MustAppend(dataset.StrVal("Divorced"))
	anonB := dataset.NewColumnar(schema)
	anonB.MustAppend(dataset.SetVal("Married"))
	anonB.MustAppend(dataset.SetVal("Not Married"))
	orig, anon := origB.Table(), anonB.Table()
	cfg := LossConfig{Taxonomies: map[string]*hierarchy.Taxonomy{"MaritalStatus": maritalTax(t)}}
	loss, err := LossVector(anon, orig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss[0]-0.2) > 1e-12 || math.Abs(loss[1]-0.6) > 1e-12 {
		t.Errorf("loss = %v, want [0.2, 0.6]", loss)
	}
	// Without the taxonomy the Set cells cannot be scored.
	if _, err := LossVector(anon, orig, LossConfig{}); err == nil {
		t.Error("missing taxonomy should fail")
	}
}
