package dataset

import "testing"

func hashTestTable(t *testing.T) *Table {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "age", Kind: Numeric, Role: QuasiIdentifier},
		Attribute{Name: "zip", Kind: Categorical, Role: QuasiIdentifier},
		Attribute{Name: "disease", Kind: Categorical, Role: Sensitive},
	)
	if err != nil {
		t.Fatal(err)
	}
	return hashTable(t, s, NumVal(41))
}

// hashTable builds the two-row hash fixture with age41 in cell (1,0).
func hashTable(t *testing.T, s *Schema, age41 Value) *Table {
	t.Helper()
	c := NewColumnar(s)
	c.MustAppend(NumVal(30), StrVal("021*"), StrVal("flu"))
	c.MustAppend(age41, StrVal("022*"), StrVal("cold"))
	return c.Table()
}

func TestHashDeterministicAndBackingIndependent(t *testing.T) {
	a := hashTestTable(t)
	b := hashTestTable(t)
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("identical tables hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash is not sha256 hex: %q", ha)
	}
	// The same rows re-appended through AppendTable hash alike.
	c := NewColumnar(a.Schema)
	if err := c.AppendTable(a); err != nil {
		t.Fatal(err)
	}
	if hc, err := c.Table().Hash(); err != nil || hc != ha {
		t.Errorf("re-appended table hashes differently: %s vs %s (%v)", hc, ha, err)
	}
}

func TestHashSensitivity(t *testing.T) {
	a := hashTestTable(t)
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	// A single cell change changes the hash.
	b := hashTable(t, a.Schema, NumVal(42))
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hb == ha {
		t.Error("cell edit did not change the hash")
	}
	// A role change (same cell text) changes the hash too.
	roles := a.Schema.Clone()
	roles.Attrs[1].Role = Insensitive
	hc, err := hashTable(t, roles, NumVal(41)).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("schema role change did not change the hash")
	}
}
