package dataset

import (
	"strings"
	"testing"
)

func demoSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "ZipCode", Kind: Categorical, Role: QuasiIdentifier},
		Attribute{Name: "Age", Kind: Numeric, Role: QuasiIdentifier},
		Attribute{Name: "MaritalStatus", Kind: Categorical, Role: Sensitive},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(
		Attribute{Name: "A"}, Attribute{Name: "A"},
	)
	if err == nil {
		t.Fatal("expected duplicate-name error")
	}
	_, err = NewSchema(Attribute{Name: ""})
	if err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSchema(Attribute{Name: "A"}, Attribute{Name: "A"})
}

func TestSchemaLookups(t *testing.T) {
	s := demoSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i := s.Index("Age"); i != 1 {
		t.Fatalf("Index(Age) = %d", i)
	}
	if i := s.Index("Nope"); i != -1 {
		t.Fatalf("Index(Nope) = %d", i)
	}
	if i := s.Index("MaritalStatus"); i != 2 || s.Attrs[i].Role != Sensitive {
		t.Fatalf("Index(MaritalStatus) = %d", i)
	}
	if qi := s.QuasiIdentifiers(); len(qi) != 2 || qi[0] != 0 || qi[1] != 1 {
		t.Fatalf("QuasiIdentifiers = %v", qi)
	}
	if si := s.SensitiveIndex(); si != 2 {
		t.Fatalf("SensitiveIndex = %d", si)
	}
	noSens := MustSchema(Attribute{Name: "X"})
	if si := noSens.SensitiveIndex(); si != -1 {
		t.Fatalf("SensitiveIndex on schema without sensitive = %d", si)
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	c.MustAppend(StrVal("13053"), NumVal(28), StrVal("CF-Spouse"))
	c.MustAppend(StrVal("13268"), NumVal(41), StrVal("Separated"))
	if err := c.AppendRow([]Value{StrVal("x")}); err == nil {
		t.Fatal("expected width error")
	}
	tab := c.Table()
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if got := tab.At(0, 1); !got.Equal(NumVal(28)) {
		t.Fatalf("At(0,1) = %v", got)
	}
	col, err := tab.ColumnByName("Age")
	if err != nil || len(col) != 2 || !col[1].Equal(NumVal(41)) {
		t.Fatalf("ColumnByName(Age) = %v, %v", col, err)
	}
	if _, err := tab.ColumnByName("Nope"); err == nil {
		t.Fatal("expected missing-column error")
	}
}

func TestMustAppendPanics(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MustAppend(StrVal("only-one"))
}

func TestDistinctCount(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	c.MustAppend(StrVal("13053"), NumVal(28), StrVal("CF-Spouse"))
	c.MustAppend(StrVal("13053"), NumVal(41), StrVal("Separated"))
	c.MustAppend(StrVal("13268"), NumVal(41), StrVal("Separated"))
	tab := c.Table()
	if got := tab.ColumnVector(0).Card(); got != 2 {
		t.Fatalf("Card(zip) = %d", got)
	}
	if got := tab.ColumnVector(1).Card(); got != 2 {
		t.Fatalf("Card(age) = %d", got)
	}
}

func TestNumericRange(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	c.MustAppend(StrVal("a"), NumVal(26), StrVal("x"))
	c.MustAppend(StrVal("b"), NumVal(55), StrVal("y"))
	c.MustAppend(StrVal("c"), IntervalVal(20, 60), StrVal("z"))
	tab := c.Table()
	lo, hi, ok := tab.NumericRange(1)
	if !ok || lo != 20 || hi != 60 {
		t.Fatalf("NumericRange = %v %v %v", lo, hi, ok)
	}
	if _, _, ok := tab.NumericRange(0); ok {
		t.Fatal("string column should have no numeric range")
	}
}

func TestTableFormat(t *testing.T) {
	c := NewColumnar(demoSchema(t))
	c.MustAppend(PrefixVal("1305", 1), IntervalVal(25, 35), SetVal("Married"))
	tab := c.Table()
	out := tab.Format(true)
	for _, want := range []string{"ZipCode", "1305*", "(25,35]", "Married", "1  "} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	noIdx := tab.Format(false)
	if strings.Contains(strings.SplitN(noIdx, "\n", 2)[0], "1  1305") {
		t.Error("Format(false) should not print indices")
	}
}

func TestRoleAndKindStrings(t *testing.T) {
	if Insensitive.String() != "insensitive" || QuasiIdentifier.String() != "quasi-identifier" || Sensitive.String() != "sensitive" {
		t.Error("Role.String mismatch")
	}
	if !strings.Contains(Role(9).String(), "9") {
		t.Error("unknown role should include code")
	}
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Error("AttrKind.String mismatch")
	}
}
