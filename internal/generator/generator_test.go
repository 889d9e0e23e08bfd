package generator

import (
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{N: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{N: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 200 || b.Len() != 200 {
		t.Fatalf("lengths %d, %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < a.Schema.Len(); j++ {
			if !a.At(i, j).Equal(b.At(i, j)) {
				t.Fatalf("row %d col %d differs across identical seeds", i, j)
			}
		}
	}
	c, err := Generate(Config{N: 200, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < a.Schema.Len(); j++ {
			if !a.At(i, j).Equal(c.At(i, j)) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{N: 0}); err == nil {
		t.Error("N=0 should fail")
	}
	if _, err := Generate(Config{N: -5}); err == nil {
		t.Error("negative N should fail")
	}
}

func TestGeneratedValuesAreInDomains(t *testing.T) {
	tab, err := Generate(Config{N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hs := Hierarchies()
	if err := hs.CoverQI(tab.Schema); err != nil {
		t.Fatal(err)
	}
	edu := EducationTaxonomy()
	mar := MaritalTaxonomy()
	dis := DiseaseTaxonomy()
	for i := 0; i < tab.Len(); i++ {
		age := tab.At(i, 0)
		if age.Kind() != dataset.Num || age.Float() < 17 || age.Float() > 90 {
			t.Fatalf("row %d: age %v out of range", i, age)
		}
		zip := tab.At(i, 1)
		if zip.Kind() != dataset.Str || len(zip.Text()) != 5 {
			t.Fatalf("row %d: zip %v malformed", i, zip)
		}
		if !edu.CoversValue("*", tab.At(i, 2).Text()) {
			t.Fatalf("row %d: education %v not in taxonomy", i, tab.At(i, 2))
		}
		if !mar.CoversValue("*", tab.At(i, 3).Text()) {
			t.Fatalf("row %d: marital %v not in taxonomy", i, tab.At(i, 3))
		}
		if !dis.CoversValue("*", tab.At(i, 4).Text()) {
			t.Fatalf("row %d: disease %v not in taxonomy", i, tab.At(i, 4))
		}
		// Every QI value must generalize cleanly at every level.
		for _, name := range []string{"Age", "ZipCode", "Education", "MaritalStatus"} {
			j := tab.Schema.Index(name)
			h := hs[name]
			for lv := 0; lv <= h.MaxLevel(); lv++ {
				if _, err := h.Generalize(tab.At(i, j), lv); err != nil {
					t.Fatalf("row %d: %s level %d: %v", i, name, lv, err)
				}
			}
		}
	}
}

func TestGeneratedDataHasDiversity(t *testing.T) {
	tab, err := Generate(Config{N: 1000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// The raw table should be nowhere near k-anonymous (that is the point
	// of anonymizing it) and diseases should cover the full pool.
	p, err := eqclass.FromTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p.MinSize() > 1 {
		t.Errorf("raw census is already %d-anonymous — too little variety", p.MinSize())
	}
	if got := tab.DistinctCount(4); got < 8 {
		t.Errorf("only %d distinct diseases", got)
	}
	if got := tab.DistinctCount(0); got < 30 {
		t.Errorf("only %d distinct ages", got)
	}
}

func TestGuards(t *testing.T) {
	tab, err := Generate(Config{N: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	guards, err := Guards(tab, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(guards) != tab.Len() {
		t.Fatalf("%d guards for %d rows", len(guards), tab.Len())
	}
	dis := DiseaseTaxonomy()
	infectious, unrestricted := 0, 0
	for i, g := range guards {
		if g.Tolerance < 0 || g.Tolerance > 1 {
			t.Fatalf("guard %d tolerance %v", i, g.Tolerance)
		}
		switch g.Label {
		case "*":
			unrestricted++
		case "Infectious":
			infectious++
			if !dis.CoversValue("Infectious", tab.At(i, 4).Text()) {
				t.Fatalf("row %d guards Infectious but has %v", i, tab.At(i, 4))
			}
		}
	}
	if infectious == 0 {
		t.Error("no infectious-disease guards drawn")
	}
	if unrestricted == 0 {
		t.Error("no unrestricted individuals drawn")
	}
	// Deterministic.
	again, _ := Guards(tab, 5)
	for i := range guards {
		if guards[i] != again[i] {
			t.Fatal("Guards not deterministic")
		}
	}
	noDis := dataset.NewColumnar(dataset.MustSchema(dataset.Attribute{Name: "X"})).Table()
	if _, err := Guards(noDis, 1); err == nil {
		t.Error("missing Disease column should fail")
	}
}
