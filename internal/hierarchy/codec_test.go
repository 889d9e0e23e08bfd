package hierarchy

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"microdata/internal/dataset"
)

const maritalText = `# the paper's Marital Status taxonomy
*
  Married
    CF-Spouse
    Spouse Present
  Not Married
    Separated
    Never Married
    Divorced
    Spouse Absent
`

func TestParseTaxonomy(t *testing.T) {
	tax, err := ParseTaxonomy("MaritalStatus", strings.NewReader(maritalText))
	if err != nil {
		t.Fatal(err)
	}
	if tax.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d", tax.MaxLevel())
	}
	g, err := tax.Generalize(dataset.StrVal("Divorced"), 1)
	if err != nil || g.String() != "Not Married" {
		t.Fatalf("Generalize = %v, %v", g, err)
	}
	leaves := tax.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestParseTaxonomyTabs(t *testing.T) {
	text := "*\n\tA\n\t\ta1\n\t\ta2\n\tB\n"
	tax, err := ParseTaxonomy("X", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got, isRoot, err := tax.LCA([]string{"a1", "a2"})
	if err != nil || got != "A" || isRoot {
		t.Errorf("LCA = %q, root=%v, err=%v", got, isRoot, err)
	}
}

func TestParseTaxonomyErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"only comments", "# nothing\n\n"},
		{"indented root", "  *\n"},
		{"second root", "*\nB\n"},
		{"jump", "*\n    deep\n"},
		{"odd spaces", "*\n   three\n"},
		{"mixed", "*\n \tmixed\n"},
		{"duplicate leaves", "*\n  a\n  a\n"},
	}
	for _, c := range cases {
		if _, err := ParseTaxonomy("X", strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestTaxonomyTextRoundTrip(t *testing.T) {
	orig, err := ParseTaxonomy("MaritalStatus", strings.NewReader(maritalText))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTaxonomy(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTaxonomy("MaritalStatus", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxLevel() != orig.MaxLevel() {
		t.Fatal("depth changed across round trip")
	}
	ol, bl := orig.Leaves(), back.Leaves()
	if len(ol) != len(bl) {
		t.Fatalf("leaf count changed: %v vs %v", ol, bl)
	}
	for i := range ol {
		if ol[i] != bl[i] {
			t.Fatalf("leaves differ: %v vs %v", ol, bl)
		}
		g1, _ := orig.Generalize(dataset.StrVal(ol[i]), 1)
		g2, _ := back.Generalize(dataset.StrVal(ol[i]), 1)
		if g1.String() != g2.String() {
			t.Fatalf("generalization of %q differs: %v vs %v", ol[i], g1, g2)
		}
	}
}

// writeTaxonomy renders the taxonomy in ParseTaxonomy's format, the inverse
// the round-trip tests check the parser against.
func writeTaxonomy(w io.Writer, t *Taxonomy) error {
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		if _, err := fmt.Fprintf(w, "%s%s\n", strings.Repeat("  ", depth), n.Label); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, 0)
}
