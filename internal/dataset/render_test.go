package dataset_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
)

// rowFormat is Format rendered cell by cell.
func rowFormat(tab *dataset.Table, index bool) string {
	ncol := tab.Schema.Len()
	widths := make([]int, ncol)
	cells := make([][]string, tab.Len()+1)
	cells[0] = make([]string, ncol)
	for j, a := range tab.Schema.Attrs {
		cells[0][j] = a.Name
	}
	for i := 0; i < tab.Len(); i++ {
		cells[i+1] = make([]string, ncol)
		for j := range cells[i+1] {
			cells[i+1][j] = tab.At(i, j).String()
		}
	}
	for _, row := range cells {
		for j, s := range row {
			widths[j] = max(widths[j], len(s))
		}
	}
	var b strings.Builder
	idxW := len(fmt.Sprint(tab.Len()))
	for i, row := range cells {
		if index {
			idx := ""
			if i > 0 {
				idx = fmt.Sprint(i)
			}
			fmt.Fprintf(&b, "%*s  ", idxW, idx)
		}
		for j, s := range row {
			fmt.Fprintf(&b, "%-*s", widths[j], s)
			if j < ncol-1 {
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRenderingMatchesRowReference pins WriteCSV, Format and Hash, which
// render each dictionary entry once per column, byte for byte to the
// cell-by-cell rendering on a generalized and suppressed census release.
// Hash feeds sealed pack fingerprints, so its bytes must never move.
func TestRenderingMatchesRowReference(t *testing.T) {
	orig, err := generator.Generate(generator.Config{N: 10000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	anon, err := hierarchy.GeneralizeTable(orig, generator.Hierarchies(), []int{1, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows []int
	for i := 0; i < anon.Len(); i += 37 {
		rows = append(rows, i)
	}
	if anon, err = hierarchy.SuppressRows(anon, rows); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*dataset.Table{orig, anon} {
		var got bytes.Buffer
		if err := dataset.WriteCSV(&got, tab); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := dataset.ReferenceWriteCSV(&ref, tab); err != nil {
			t.Fatal(err)
		}
		want := ref.Bytes()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("WriteCSV differs from the cell-by-cell rendering")
		}
		for _, index := range []bool{true, false} {
			if tab.Format(index) != rowFormat(tab, index) {
				t.Fatalf("Format(%v) differs from the cell-by-cell rendering", index)
			}
		}
		h := sha256.New()
		for _, a := range tab.Schema.Attrs {
			fmt.Fprintf(h, "%s\x1f%d\x1f%d\x1e", a.Name, a.Kind, a.Role)
		}
		h.Write([]byte{'\x1d'})
		h.Write(want)
		got2, err := tab.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if want := hex.EncodeToString(h.Sum(nil)); got2 != want {
			t.Fatalf("Hash = %s, cell-by-cell reference %s", got2, want)
		}
	}
}
