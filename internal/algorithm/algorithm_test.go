package algorithm

import (
	"math"
	"strings"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

func schema3() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
}

func hierSet() hierarchy.Set {
	return hierarchy.MustSet(
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 10, Origin: 5},
			hierarchy.IntervalLevel{Width: 20, Origin: 15},
			hierarchy.IntervalLevel{Width: 20, Origin: 0},
		),
	)
}

func table() *dataset.Table {
	c := dataset.NewColumnar(schema3())
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

func TestConfigValidate(t *testing.T) {
	tab := table()
	good := Config{K: 3, Hierarchies: hierSet()}
	if err := good.Validate(tab); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{K: 0, Hierarchies: hierSet()},
		{K: 11, Hierarchies: hierSet()},
		{K: 3},
		{K: 3, Hierarchies: hierSet(), MaxSuppression: -0.1},
		{K: 3, Hierarchies: hierSet(), MaxSuppression: 1.1},
		{K: 3, Hierarchies: hierSet(), MaxSuppression: math.NaN()},
		{K: 3, Hierarchies: hierarchy.MustSet(hierarchy.MustPrefixMask("ZipCode", 5, 10))},
	}
	for i, c := range cases {
		if err := c.Validate(tab); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if err := good.Validate(nil); err == nil {
		t.Error("nil table should fail")
	}
	if err := good.Validate(dataset.NewColumnar(schema3()).Table()); err == nil {
		t.Error("empty table should fail")
	}
}

func TestMetricString(t *testing.T) {
	if MetricLM.String() != "LM" || MetricDM.String() != "DM" || MetricPrec.String() != "Prec" {
		t.Error("metric names mismatch")
	}
	if !strings.Contains(Metric(9).String(), "9") {
		t.Error("unknown metric should include code")
	}
}

func TestApplyNode(t *testing.T) {
	tab := table()
	anon, p, small, err := ApplyNode(tab, Config{K: 3, Hierarchies: hierSet()}, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 0 {
		t.Errorf("T3a levels are 3-anonymous; small = %v", small)
	}
	if p.MinSize() != 3 || anon.At(0, 0).String() != "1305*" {
		t.Errorf("unexpected generalization: min=%d cell=%v", p.MinSize(), anon.At(0, 0))
	}
	// k=4 at T3a levels leaves the two 3-classes undersized.
	_, _, small, err = ApplyNode(tab, Config{K: 4, Hierarchies: hierSet()}, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 6 {
		t.Errorf("small = %v, want the 6 rows of the two 3-classes", small)
	}
	if _, _, _, err := ApplyNode(tab, Config{K: 3, Hierarchies: hierSet()}, lattice.Node{9, 9}); err == nil {
		t.Error("invalid node should fail")
	}
}

func TestSatisfiesK(t *testing.T) {
	tab := table()
	anon, p, _, err := ApplyNode(tab, Config{K: 3, Hierarchies: hierSet()}, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !SatisfiesK(p, anon, 3) {
		t.Error("T3a should satisfy k=3")
	}
	if SatisfiesK(p, anon, 4) {
		t.Error("T3a should not satisfy k=4")
	}
	// Suppress the two undersized classes for k=4: the star class is
	// exempt regardless of its size.
	_, _, small, _ := ApplyNode(tab, Config{K: 4, Hierarchies: hierSet()}, lattice.Node{1, 1})
	anon, err = hierarchy.SuppressRows(anon, small)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := eqclass.FromTable(anon)
	if !SatisfiesK(p2, anon, 4) {
		t.Error("after suppressing undersized classes, k=4 should hold")
	}
	empty, _ := eqclass.FromGroups(0, nil)
	if SatisfiesK(empty, dataset.NewColumnar(schema3()).Table(), 1) {
		t.Error("empty partition never satisfies")
	}
}

func TestFinishGlobal(t *testing.T) {
	tab := table()
	cfg := Config{K: 3, Hierarchies: hierSet()}
	r, err := FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "test" || r.Table.Len() != 10 || len(r.Suppressed) != 0 {
		t.Errorf("result = %+v", r)
	}
	if r.Stats["suppressed"] != 0 {
		t.Errorf("stats = %v", r.Stats)
	}
	// k=4 at node [1 1] needs 6 suppressions; without budget it fails.
	cfg.K = 4
	if _, err := FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil); err == nil {
		t.Error("over-budget suppression should fail")
	}
	cfg.MaxSuppression = 0.6
	r, err = FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Suppressed) != 6 {
		t.Errorf("suppressed %d rows, want 6", len(r.Suppressed))
	}
	for _, row := range r.Suppressed {
		if !r.Table.At(row, 0).IsSuppressed() {
			t.Errorf("row %d not star", row)
		}
	}
}

func TestNodeCost(t *testing.T) {
	tab := table()
	cfg := Config{K: 3, Hierarchies: hierSet(), Metric: MetricLM}
	c0, err := NodeCost(tab, cfg, lattice.Node{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Bottom node is not 3-anonymous and has no budget: infeasible.
	if !math.IsInf(c0, 1) {
		t.Errorf("bottom node cost = %v, want +Inf", c0)
	}
	c1, err := NodeCost(tab, cfg, lattice.Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NodeCost(tab, cfg, lattice.Node{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !(c1 < c2) {
		t.Errorf("LM cost should grow with generalization: %v vs %v", c1, c2)
	}
	// DM: T3a yields 34, T3b 58.
	cfg.Metric = MetricDM
	d1, _ := NodeCost(tab, cfg, lattice.Node{1, 1})
	d2, _ := NodeCost(tab, cfg, lattice.Node{2, 2})
	if d1 != 34 || d2 != 58 {
		t.Errorf("DM costs = %v, %v; want 34, 58", d1, d2)
	}
	// Prec is negated: less generalization = lower (better) cost.
	cfg.Metric = MetricPrec
	p1, _ := NodeCost(tab, cfg, lattice.Node{1, 1})
	p2, _ := NodeCost(tab, cfg, lattice.Node{2, 2})
	if !(p1 < p2) {
		t.Errorf("negated precision should grow with generalization: %v vs %v", p1, p2)
	}
	cfg.Metric = Metric(77)
	if _, err := NodeCost(tab, cfg, lattice.Node{1, 1}); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestResultCost(t *testing.T) {
	tab := table()
	cfg := Config{K: 3, Hierarchies: hierSet(), Metric: MetricLM}
	r, err := FinishGlobal("test", tab, cfg, lattice.Node{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ResultCost(r, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := NodeCost(tab, cfg, lattice.Node{1, 1})
	if math.Abs(c-direct) > 1e-12 {
		t.Errorf("ResultCost %v != NodeCost %v", c, direct)
	}
	// Local-recoding result (nil Levels) under MetricPrec falls back to LM.
	cfg.Metric = MetricPrec
	r.Levels = nil
	if _, err := ResultCost(r, tab, cfg); err != nil {
		t.Errorf("nil-Levels precision fallback failed: %v", err)
	}
}

// TestBudgetExactOnDecimalFractions pins Budget to the largest b <= n with
// b/n <= MaxSuppression. The plain product truncates one row short where
// the fraction has no exact binary form: 0.29×100 evaluates to
// 28.999999999999996.
func TestBudgetExactOnDecimalFractions(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		n    int
		want int
	}{
		{0.29, 100, 29},
		{0.57, 100, 57},
		{0.58, 100, 58},
		{0.29, 10000, 2900},
		{0.57, 10000, 5700},
		{0.58, 10000, 5800},
		{0.69, 10000, 6900},
		{0.29, 100000, 29000},
		{0.57, 100000, 57000},
		{0.58, 100000, 58000},
		{0.69, 100000, 69000},
		{0.05, 1000, 50},
		{0.05, 1000000, 50000},
		{0, 100, 0},
		{1, 7, 7},
		{0.5, 7, 3},
		{0.05, 0, 0},
	} {
		if got := (Config{MaxSuppression: tc.frac}).Budget(tc.n); got != tc.want {
			t.Errorf("Budget(%d) at %v = %d, want %d", tc.n, tc.frac, got, tc.want)
		}
	}
	// Every percentage and per-mille fraction agrees with exact integer
	// arithmetic, floor(p·n/d).
	for _, n := range []int{1, 7, 100, 1234, 10000, 100000, 1000000} {
		for _, d := range []int{100, 1000} {
			for p := 0; p <= d; p++ {
				cfg := Config{MaxSuppression: float64(p) / float64(d)}
				if got, want := cfg.Budget(n), p*n/d; got != want {
					t.Fatalf("Budget(%d) at %d/%d = %d, want %d", n, p, d, got, want)
				}
			}
		}
	}
}
