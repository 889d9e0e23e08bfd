package paperdata

import (
	"testing"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/privacy"
)

func TestT1MatchesTable1(t *testing.T) {
	t1 := T1()
	if t1.Len() != 10 {
		t.Fatalf("T1 has %d tuples, want 10", t1.Len())
	}
	// Spot-check the printed rows.
	if t1.At(0, 0).Text() != "13053" || t1.At(0, 1).Float() != 28 || t1.At(0, 2).Text() != "CF-Spouse" {
		t.Errorf("tuple 1 mismatch: %v %v %v", t1.At(0, 0), t1.At(0, 1), t1.At(0, 2))
	}
	if t1.At(9, 0).Text() != "13250" || t1.At(9, 1).Float() != 47 || t1.At(9, 2).Text() != "Separated" {
		t.Errorf("tuple 10 mismatch")
	}
	// Fresh copies: mutating one's schema must not leak.
	t1.Schema.Attrs[0].Role = dataset.Insensitive
	if T1().Schema.Attrs[0].Role != dataset.QuasiIdentifier {
		t.Error("T1 returns a shared schema")
	}
}

func TestT3aMatchesTable2Left(t *testing.T) {
	t3a := T3a()
	want := [][3]string{
		{"1305*", "(25,35]", "Married"},
		{"1326*", "(35,45]", "Not Married"},
		{"1326*", "(35,45]", "Not Married"},
		{"1305*", "(25,35]", "Married"},
		{"1325*", "(45,55]", "Not Married"},
		{"1325*", "(45,55]", "Not Married"},
		{"1325*", "(45,55]", "Not Married"},
		{"1305*", "(25,35]", "Married"},
		{"1326*", "(35,45]", "Not Married"},
		{"1325*", "(45,55]", "Not Married"},
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if got := t3a.At(i, j).String(); got != w[j] {
				t.Errorf("T3a[%d][%d] = %q, want %q", i+1, j, got, w[j])
			}
		}
	}
}

func TestT3bMatchesTable2Right(t *testing.T) {
	t3b := T3b()
	want := [][3]string{
		{"130**", "(15,35]", "Married"},
		{"132**", "(35,55]", "Not Married"},
		{"132**", "(35,55]", "Not Married"},
		{"130**", "(15,35]", "Married"},
		{"132**", "(35,55]", "Not Married"},
		{"132**", "(35,55]", "Not Married"},
		{"132**", "(35,55]", "Not Married"},
		{"130**", "(15,35]", "Married"},
		{"132**", "(35,55]", "Not Married"},
		{"132**", "(35,55]", "Not Married"},
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if got := t3b.At(i, j).String(); got != w[j] {
				t.Errorf("T3b[%d][%d] = %q, want %q", i+1, j, got, w[j])
			}
		}
	}
}

func TestT4MatchesTable3(t *testing.T) {
	t4 := T4()
	want := [][3]string{
		{"13***", "(20,40]", "*"},
		{"13***", "(40,60]", "*"},
		{"13***", "(20,40]", "*"},
		{"13***", "(20,40]", "*"},
		{"13***", "(40,60]", "*"},
		{"13***", "(40,60]", "*"},
		{"13***", "(40,60]", "*"},
		{"13***", "(20,40]", "*"},
		{"13***", "(40,60]", "*"},
		{"13***", "(40,60]", "*"},
	}
	for i, w := range want {
		for j := 0; j < 3; j++ {
			if got := t4.At(i, j).String(); got != w[j] {
				t.Errorf("T4[%d][%d] = %q, want %q", i+1, j, got, w[j])
			}
		}
	}
}

func TestPartitionsReproduceFigure1(t *testing.T) {
	cases := []struct {
		name  string
		table *dataset.Table
		k     int
		want  core.PropertyVector
	}{
		{"T3a", T3a(), 3, ClassSizeT3a},
		{"T3b", T3b(), 3, ClassSizeT3b},
		{"T4", T4(), 4, ClassSizeT4},
	}
	for _, c := range cases {
		p, err := Partition(c.table)
		if err != nil {
			t.Fatal(err)
		}
		if got := privacy.KAnonymity(p); got != c.k {
			t.Errorf("%s: k = %d, want %d", c.name, got, c.k)
		}
		got := core.PropertyVector(privacy.ClassSizeVector(p))
		if !got.Equal(c.want) {
			t.Errorf("%s: class-size vector = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSensitiveCountMatchesPaper(t *testing.T) {
	p, err := Partition(T3a())
	if err != nil {
		t.Fatal(err)
	}
	got, err := privacy.SensitiveCountVector(p, SensitiveColumn())
	if err != nil {
		t.Fatal(err)
	}
	if !core.PropertyVector(got).Equal(SensitiveCountT3a) {
		t.Errorf("sensitive-count vector = %v, want %v", got, SensitiveCountT3a)
	}
}

func TestQuotedVectorsConsistency(t *testing.T) {
	// The quoted §5.5 utility vectors must reproduce the paper's coverage
	// index values.
	if got, _ := core.EvalBinary(core.PCov, UtilityT3a, UtilityT3b); got != 1 {
		t.Errorf("P_cov(u_a, u_b) = %v, want 1", got)
	}
	if got, _ := core.EvalBinary(core.PCov, UtilityT3b, UtilityT3a); got != 0.3 {
		t.Errorf("P_cov(u_b, u_a) = %v, want 0.3", got)
	}
	// And the hv example's published values.
	if got, _ := core.EvalBinary(core.PHv, HvExampleS, HvExampleT); got != 56727 {
		t.Errorf("P_hv(s,t) = %v", got)
	}
}

func TestLatticeLevelsAreValid(t *testing.T) {
	hs := Hierarchies()
	ml, err := hs.MaxLevels(Schema())
	if err != nil {
		t.Fatal(err)
	}
	if ml[0] != 5 || ml[1] != 4 {
		t.Fatalf("max levels = %v", ml)
	}
	for _, n := range []struct {
		name string
		lv   []int
	}{
		{"T3a", LevelsT3a}, {"T3b", LevelsT3b}, {"T4", LevelsT4},
	} {
		for i, l := range n.lv {
			if l < 0 || l > ml[i] {
				t.Errorf("%s level %d out of range", n.name, i)
			}
		}
	}
}
