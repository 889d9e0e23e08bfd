package hierarchy

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTaxonomy checks that arbitrary text either fails cleanly or
// produces a taxonomy that round-trips through writeTaxonomy.
func FuzzParseTaxonomy(f *testing.F) {
	f.Add("*\n  A\n    a1\n    a2\n  B\n")
	f.Add("*\n\tA\n\t\ta1\n")
	f.Add("# comment\nroot\n  leaf\n")
	f.Add("")
	f.Add("  indented-root\n")
	f.Add("*\n      jump\n")
	f.Add("*\n  dup\n  dup\n")
	f.Fuzz(func(t *testing.T, text string) {
		tax, err := ParseTaxonomy("X", strings.NewReader(text))
		if err != nil {
			return
		}
		// A parsed taxonomy must be internally consistent.
		if tax.MaxLevel() < 1 {
			t.Fatalf("taxonomy with MaxLevel %d", tax.MaxLevel())
		}
		leaves := tax.Leaves()
		if len(leaves) == 0 {
			t.Fatal("taxonomy with no leaves")
		}
		var buf bytes.Buffer
		if err := writeTaxonomy(&buf, tax); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ParseTaxonomy("X", &buf)
		if err != nil {
			t.Fatalf("round trip parse: %v\n%s", err, buf.String())
		}
		if back.MaxLevel() != tax.MaxLevel() || len(back.Leaves()) != len(leaves) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				tax.MaxLevel(), len(leaves), back.MaxLevel(), len(back.Leaves()))
		}
	})
}
