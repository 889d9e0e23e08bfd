package hierarchy

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"microdata/internal/dataset"
)

// maritalTaxonomy is the paper's Marital Status taxonomy: Table 2 groups
// CF-Spouse and Spouse Present under "Married"; Separated, Never Married,
// Divorced and Spouse Absent under "Not Married".
func maritalTaxonomy(t *testing.T) *Taxonomy {
	t.Helper()
	tax, err := NewTaxonomy("MaritalStatus", N("*",
		N("Married", N("CF-Spouse"), N("Spouse Present")),
		N("Not Married", N("Separated"), N("Never Married"), N("Divorced"), N("Spouse Absent")),
	))
	if err != nil {
		t.Fatal(err)
	}
	return tax
}

// ageLadder is the Age ladder that reproduces the paper's three
// generalizations: level 1 = width-10 anchored at 5 (T3a), level 2 =
// width-20 anchored at 15 (T3b), level 3 = width-20 anchored at 0 (T4),
// level 4 = suppression.
func ageLadder(t *testing.T) *Intervals {
	t.Helper()
	h, err := NewIntervals("Age", 0, 100,
		IntervalLevel{Width: 10, Origin: 5},
		IntervalLevel{Width: 20, Origin: 15},
		IntervalLevel{Width: 20, Origin: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTaxonomyGeneralize(t *testing.T) {
	tax := maritalTaxonomy(t)
	if tax.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d, want 2", tax.MaxLevel())
	}
	cases := []struct {
		in    string
		level int
		want  string
	}{
		{"CF-Spouse", 0, "CF-Spouse"},
		{"CF-Spouse", 1, "Married"},
		{"Spouse Present", 1, "Married"},
		{"Spouse Absent", 1, "Not Married"},
		{"Divorced", 1, "Not Married"},
		{"Never Married", 2, "*"},
	}
	for _, c := range cases {
		got, err := tax.Generalize(dataset.StrVal(c.in), c.level)
		if err != nil {
			t.Fatalf("Generalize(%q, %d): %v", c.in, c.level, err)
		}
		if got.String() != c.want {
			t.Errorf("Generalize(%q, %d) = %q, want %q", c.in, c.level, got, c.want)
		}
	}
}

func TestTaxonomyErrors(t *testing.T) {
	tax := maritalTaxonomy(t)
	if _, err := tax.Generalize(dataset.StrVal("Widowed"), 1); err == nil {
		t.Error("unknown value at level 1 should fail")
	}
	if _, err := tax.Generalize(dataset.StrVal("Widowed"), 0); err == nil {
		t.Error("unknown value at level 0 should fail")
	}
	if _, err := tax.Generalize(dataset.StrVal("Widowed"), tax.MaxLevel()); err == nil {
		t.Error("unknown value at max level should fail")
	}
	if _, err := tax.Generalize(dataset.NumVal(3), 1); err == nil {
		t.Error("numeric value should fail")
	}
	if _, err := tax.Generalize(dataset.StrVal("Divorced"), 3); err == nil {
		t.Error("out-of-range level should fail")
	}
	if _, err := tax.Loss(dataset.StrVal("Divorced"), -1); err == nil {
		t.Error("negative level should fail")
	}
}

func TestTaxonomyConstructionErrors(t *testing.T) {
	if _, err := NewTaxonomy("X", nil); err == nil {
		t.Error("nil root should fail")
	}
	if _, err := NewTaxonomy("X", N("*", N("a"), N("a"))); err == nil {
		t.Error("duplicate leaves should fail")
	}
	if _, err := NewTaxonomy("X", &Node{Label: "*", Children: []*Node{nil}}); err == nil {
		t.Error("nil child should fail")
	}
}

func TestTaxonomyLoss(t *testing.T) {
	tax := maritalTaxonomy(t)
	// 6 leaves total; Married has 2, Not Married has 4.
	cases := []struct {
		in    string
		level int
		want  float64
	}{
		{"CF-Spouse", 0, 0},
		{"CF-Spouse", 1, (2.0 - 1) / (6 - 1)},
		{"Divorced", 1, (4.0 - 1) / (6 - 1)},
		{"Divorced", 2, 1},
	}
	for _, c := range cases {
		got, err := tax.Loss(dataset.StrVal(c.in), c.level)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Loss(%q, %d) = %v, want %v", c.in, c.level, got, c.want)
		}
	}
}

func TestTaxonomyLeafCountAndLeaves(t *testing.T) {
	tax := maritalTaxonomy(t)
	leaves := tax.Leaves()
	if len(leaves) != 6 || leaves[0] != "CF-Spouse" || leaves[5] != "Spouse Absent" {
		t.Errorf("Leaves = %v", leaves)
	}
}

func TestTaxonomyCoversValue(t *testing.T) {
	tax := maritalTaxonomy(t)
	cases := []struct {
		g, ground string
		want      bool
	}{
		{"*", "Divorced", true},
		{"Not Married", "Divorced", true},
		{"Not Married", "CF-Spouse", false},
		{"Married", "CF-Spouse", true},
		{"CF-Spouse", "CF-Spouse", true},
		{"Married", "Nonexistent", false},
	}
	for _, c := range cases {
		if got := tax.CoversValue(c.g, c.ground); got != c.want {
			t.Errorf("CoversValue(%q,%q) = %v, want %v", c.g, c.ground, got, c.want)
		}
	}
}

func TestUnevenTaxonomySaturatesAtRoot(t *testing.T) {
	tax := MustTaxonomy("X", N("*",
		N("deep", N("mid", N("leafA"), N("leafB"))),
		N("shallow"),
	))
	if tax.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3", tax.MaxLevel())
	}
	// shallow is a depth-1 leaf; at level 2 it saturates at the root,
	// rendered as "*" because the node is the root.
	g, err := tax.Generalize(dataset.StrVal("shallow"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != "*" {
		t.Errorf("shallow at level 2 = %q, want *", g)
	}
	g, err = tax.Generalize(dataset.StrVal("leafA"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != "deep" {
		t.Errorf("leafA at level 2 = %q, want deep", g)
	}
}

func TestSingleNodeTaxonomy(t *testing.T) {
	tax := MustTaxonomy("X", N("only"))
	if tax.MaxLevel() != 1 {
		t.Fatalf("MaxLevel = %d, want 1", tax.MaxLevel())
	}
	g, err := tax.Generalize(dataset.StrVal("only"), 1)
	if err != nil || !g.IsSuppressed() {
		t.Fatalf("level 1 = %v, %v", g, err)
	}
	if l, _ := tax.Loss(dataset.StrVal("only"), 0); l != 0 {
		t.Errorf("loss at 0 = %v", l)
	}
	if l, _ := tax.Loss(dataset.StrVal("only"), 1); l != 1 {
		t.Errorf("loss at 1 = %v", l)
	}
}

func TestIntervalsPaperLadders(t *testing.T) {
	age := ageLadder(t)
	if age.MaxLevel() != 4 {
		t.Fatalf("MaxLevel = %d, want 4", age.MaxLevel())
	}
	cases := []struct {
		in    float64
		level int
		want  string
	}{
		// T3a (level 1): ages 28,26,31 -> (25,35]; 41,39,42 -> (35,45]; 50,55,49,47 -> (45,55]
		{28, 1, "(25,35]"}, {26, 1, "(25,35]"}, {31, 1, "(25,35]"},
		{41, 1, "(35,45]"}, {39, 1, "(35,45]"}, {42, 1, "(35,45]"},
		{50, 1, "(45,55]"}, {55, 1, "(45,55]"}, {49, 1, "(45,55]"}, {47, 1, "(45,55]"},
		// Boundary: 35 belongs to (25,35], 45 to (35,45].
		{35, 1, "(25,35]"}, {45, 1, "(35,45]"},
		// T3b (level 2): 28 -> (15,35]; 41 -> (35,55]
		{28, 2, "(15,35]"}, {41, 2, "(35,55]"}, {55, 2, "(35,55]"}, {35, 2, "(15,35]"},
		// T4 (level 3): 28 -> (20,40]; 41 -> (40,60]; 40 on boundary -> (20,40]
		{28, 3, "(20,40]"}, {41, 3, "(40,60]"}, {40, 3, "(20,40]"},
		// identity and suppression
		{28, 0, "28"}, {28, 4, "*"},
	}
	for _, c := range cases {
		got, err := age.Generalize(dataset.NumVal(c.in), c.level)
		if err != nil {
			t.Fatalf("Generalize(%v, %d): %v", c.in, c.level, err)
		}
		if got.String() != c.want {
			t.Errorf("Generalize(%v, %d) = %q, want %q", c.in, c.level, got, c.want)
		}
	}
}

func TestIntervalsErrors(t *testing.T) {
	if _, err := NewIntervals("X", 5, 5); err == nil {
		t.Error("empty domain should fail")
	}
	if _, err := NewIntervals("X", 0, 10, IntervalLevel{Width: 0}); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewIntervals("X", 0, 10, IntervalLevel{Width: -2}); err == nil {
		t.Error("negative width should fail")
	}
	age := ageLadder(t)
	if _, err := age.Generalize(dataset.StrVal("x"), 1); err == nil {
		t.Error("string value should fail")
	}
	if _, err := age.Generalize(dataset.NumVal(1), 9); err == nil {
		t.Error("out-of-range level should fail")
	}
	if _, err := age.Loss(dataset.NumVal(1), 9); err == nil {
		t.Error("out-of-range loss level should fail")
	}
}

func TestIntervalsLoss(t *testing.T) {
	age := ageLadder(t)
	for level, want := range map[int]float64{0: 0, 1: 0.1, 2: 0.2, 3: 0.2, 4: 1} {
		got, err := age.Loss(dataset.NumVal(30), level)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Loss level %d = %v, want %v", level, got, want)
		}
	}
	// Width larger than the domain clamps to 1.
	wide := MustIntervals("X", 0, 10, IntervalLevel{Width: 100})
	if l, _ := wide.Loss(dataset.NumVal(3), 1); l != 1 {
		t.Errorf("clamped loss = %v, want 1", l)
	}
}

func TestIntervalBucketContainsValueQuick(t *testing.T) {
	f := func(x int16, w uint8, o int8) bool {
		width := float64(w%50) + 1
		l := IntervalLevel{Width: width, Origin: float64(o)}
		lo, hi := l.bucket(float64(x))
		return lo < float64(x) && float64(x) <= hi && hi-lo == width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixMaskPaperZips(t *testing.T) {
	zip := MustPrefixMask("ZipCode", 5, 10)
	if zip.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", zip.MaxLevel())
	}
	cases := []struct {
		in    string
		level int
		want  string
	}{
		{"13053", 0, "13053"},
		{"13053", 1, "1305*"}, // T3a
		{"13053", 2, "130**"}, // T3b
		{"13053", 3, "13***"}, // T4
		{"13053", 4, "1****"},
		{"13053", 5, "*"},
	}
	for _, c := range cases {
		got, err := zip.Generalize(dataset.StrVal(c.in), c.level)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != c.want {
			t.Errorf("Generalize(%q, %d) = %q, want %q", c.in, c.level, got, c.want)
		}
	}
	for level, want := range map[int]float64{0: 0, 1: 0.2, 3: 0.6, 5: 1} {
		got, err := zip.Loss(dataset.StrVal("13053"), level)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Loss level %d = %v, want %v", level, got, want)
		}
	}
}

func TestPrefixMaskErrors(t *testing.T) {
	if _, err := NewPrefixMask("X", 0, 10); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := NewPrefixMask("X", 5, 1); err == nil {
		t.Error("radix < 2 should fail")
	}
	zip := MustPrefixMask("ZipCode", 5, 10)
	if _, err := zip.Generalize(dataset.StrVal("123"), 1); err == nil {
		t.Error("wrong length should fail")
	}
	if _, err := zip.Generalize(dataset.NumVal(13053), 1); err == nil {
		t.Error("numeric value should fail")
	}
	if _, err := zip.Generalize(dataset.StrVal("13053"), 6); err == nil {
		t.Error("out-of-range level should fail")
	}
	if _, err := zip.Loss(dataset.StrVal("123"), 1); err == nil {
		t.Error("loss on wrong length should fail")
	}
}

func TestSetConstructionAndCoverage(t *testing.T) {
	zip := MustPrefixMask("ZipCode", 5, 10)
	age := ageLadder(t)
	if _, err := NewSet(zip, zip); err == nil {
		t.Error("duplicate attribute should fail")
	}
	set := MustSet(zip, age)
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	if err := set.CoverQI(schema); err != nil {
		t.Fatal(err)
	}
	ml, err := set.MaxLevels(schema)
	if err != nil || len(ml) != 2 || ml[0] != 5 || ml[1] != 4 {
		t.Fatalf("MaxLevels = %v, %v", ml, err)
	}
	missing := MustSet(zip)
	if err := missing.CoverQI(schema); err == nil {
		t.Error("missing hierarchy should fail CoverQI")
	}
	if _, err := missing.MaxLevels(schema); err == nil {
		t.Error("missing hierarchy should fail MaxLevels")
	}
}

func TestMustSetPanics(t *testing.T) {
	zip := MustPrefixMask("ZipCode", 5, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSet(zip, zip)
}

func TestGeneralizeTable(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	c := dataset.NewColumnar(schema)
	c.MustAppend(dataset.StrVal("13053"), dataset.NumVal(28), dataset.StrVal("CF-Spouse"))
	c.MustAppend(dataset.StrVal("13268"), dataset.NumVal(41), dataset.StrVal("Separated"))
	tab := c.Table()
	set := MustSet(MustPrefixMask("ZipCode", 5, 10), ageLadder(t))

	out, err := GeneralizeTable(tab, set, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, 0).String(); got != "1305*" {
		t.Errorf("zip = %q", got)
	}
	if got := out.At(0, 1).String(); got != "(25,35]" {
		t.Errorf("age = %q", got)
	}
	if got := out.At(0, 2).Text(); got != "CF-Spouse" {
		t.Errorf("sensitive should be untouched, got %q", got)
	}
	// Original untouched.
	if got := tab.At(0, 0).Text(); got != "13053" {
		t.Errorf("original mutated: %q", got)
	}

	if _, err := GeneralizeTable(tab, set, []int{1}); err == nil {
		t.Error("wrong level count should fail")
	}
	if _, err := GeneralizeTable(tab, set, []int{9, 1}); err == nil {
		t.Error("out-of-range level should fail")
	}
	bad := MustSet(ageLadder(t))
	if _, err := GeneralizeTable(tab, bad, []int{1, 1}); err == nil {
		t.Error("missing hierarchy should fail")
	}
}

func TestSuppressRows(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	c := dataset.NewColumnar(schema)
	c.MustAppend(dataset.StrVal("13053"), dataset.NumVal(28), dataset.StrVal("CF-Spouse"))
	c.MustAppend(dataset.StrVal("13268"), dataset.NumVal(41), dataset.StrVal("Separated"))
	tab := c.Table()
	out, err := SuppressRows(tab, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.At(1, 0).IsSuppressed() || !out.At(1, 1).IsSuppressed() {
		t.Error("row 1 QI cells should be suppressed")
	}
	if out.At(1, 2).IsSuppressed() {
		t.Error("sensitive cell should not be suppressed")
	}
	if out.At(0, 0).IsSuppressed() || tab.At(1, 0).IsSuppressed() {
		t.Error("row 0 and the input should be untouched")
	}
	if out.Len() != 2 {
		t.Error("suppression must not drop rows")
	}
	if _, err := SuppressRows(tab, []int{2}); err == nil {
		t.Error("out-of-range row should fail")
	}
}

// TestDerivingLeavesInputUnchanged pins table immutability: generalizing
// and suppressing build new tables, and the input's hash is unchanged.
func TestDerivingLeavesInputUnchanged(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
	c := dataset.NewColumnar(schema)
	for i := 0; i < 200; i++ {
		c.MustAppend(dataset.StrVal(fmt.Sprintf("130%02d", i%37)), dataset.NumVal(float64(18+i%61)), dataset.StrVal(fmt.Sprint("s", i%5)))
	}
	tab := c.Table()
	before, err := tab.Hash()
	if err != nil {
		t.Fatal(err)
	}
	set := MustSet(MustPrefixMask("ZipCode", 5, 10), ageLadder(t))
	for _, levels := range [][]int{{0, 0}, {1, 1}, {2, 3}, {5, 4}} {
		anon, err := GeneralizeTable(tab, set, levels)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SuppressRows(anon, []int{0, 7, 199}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := tab.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("input hash changed: %s -> %s", before, after)
	}
}

func TestGeneralizeMonotoneLossQuick(t *testing.T) {
	age := ageLadder(t)
	// Loss is not required to be monotone across arbitrary ladders (T3b/T4
	// rungs share a width) but must be 0 at level 0 and 1 at the top, and
	// within [0,1] everywhere.
	f := func(x uint8) bool {
		v := dataset.NumVal(float64(x % 100))
		l0, err0 := age.Loss(v, 0)
		lt, errt := age.Loss(v, age.MaxLevel())
		if err0 != nil || errt != nil || l0 != 0 || lt != 1 {
			return false
		}
		for lv := 0; lv <= age.MaxLevel(); lv++ {
			l, err := age.Loss(v, lv)
			if err != nil || l < 0 || l > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneralizedValueCoversGroundQuick(t *testing.T) {
	zip := MustPrefixMask("ZipCode", 5, 10)
	f := func(n uint32, lvRaw uint8) bool {
		s := []byte("00000")
		m := n
		for i := 4; i >= 0; i-- {
			s[i] = byte('0' + m%10)
			m /= 10
		}
		v := dataset.StrVal(string(s))
		lv := int(lvRaw) % 6
		g, err := zip.Generalize(v, lv)
		if err != nil {
			return false
		}
		return g.Covers(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaxonomyLCA(t *testing.T) {
	tax := maritalTaxonomy(t)
	cases := []struct {
		in     []string
		want   string
		isRoot bool
	}{
		{[]string{"CF-Spouse"}, "CF-Spouse", false},
		{[]string{"CF-Spouse", "Spouse Present"}, "Married", false},
		{[]string{"Separated", "Divorced", "Never Married"}, "Not Married", false},
		{[]string{"CF-Spouse", "Divorced"}, "*", true},
	}
	for _, c := range cases {
		got, isRoot, err := tax.LCA(c.in)
		if err != nil {
			t.Fatalf("LCA(%v): %v", c.in, err)
		}
		if got != c.want || isRoot != c.isRoot {
			t.Errorf("LCA(%v) = %q root=%v, want %q root=%v", c.in, got, isRoot, c.want, c.isRoot)
		}
	}
	if _, _, err := tax.LCA(nil); err == nil {
		t.Error("empty LCA should fail")
	}
	if _, _, err := tax.LCA([]string{"Nope"}); err == nil {
		t.Error("unknown first value should fail")
	}
	if _, _, err := tax.LCA([]string{"Divorced", "Nope"}); err == nil {
		t.Error("unknown later value should fail")
	}
}

// LCA must cover every input value — the Mondrian soundness property.
func TestLCACoversInputsQuick(t *testing.T) {
	tax := maritalTaxonomy(t)
	leaves := tax.Leaves()
	f := func(picks []uint8) bool {
		if len(picks) == 0 {
			return true
		}
		grounds := make([]string, len(picks))
		for i, p := range picks {
			grounds[i] = leaves[int(p)%len(leaves)]
		}
		label, isRoot, err := tax.LCA(grounds)
		if err != nil {
			return false
		}
		if isRoot {
			label = "*"
		}
		for _, g := range grounds {
			if !tax.CoversValue(label, g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyErrorMessagesNameAttribute(t *testing.T) {
	zip := MustPrefixMask("ZipCode", 5, 10)
	_, err := zip.Generalize(dataset.StrVal("123"), 1)
	if err == nil || !strings.Contains(err.Error(), "ZipCode") {
		t.Errorf("error should name the attribute: %v", err)
	}
}

func TestCoveringLabels(t *testing.T) {
	tax := maritalTaxonomy(t)
	got := tax.CoveringLabels("CF-Spouse")
	want := []string{"CF-Spouse", "Married", "*"}
	if len(got) != len(want) {
		t.Fatalf("CoveringLabels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CoveringLabels = %v, want %v", got, want)
		}
	}
	if tax.CoveringLabels("Alien") != nil {
		t.Error("unknown ground value should yield nil")
	}
	// CoveringLabels must agree with CoversValue for every on-tree label.
	for _, ground := range tax.Leaves() {
		covering := map[string]bool{}
		for _, lbl := range tax.CoveringLabels(ground) {
			covering[lbl] = true
			if !tax.CoversValue(lbl, ground) {
				t.Fatalf("CoveringLabels(%q) lists %q but CoversValue denies it", ground, lbl)
			}
		}
		for _, other := range []string{"Married", "Not Married", "*"} {
			if tax.CoversValue(other, ground) && !covering[other] {
				t.Fatalf("CoversValue(%q, %q) holds but CoveringLabels omits it", other, ground)
			}
		}
	}
}
