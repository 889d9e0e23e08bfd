package dataset_test

import (
	"bytes"
	"fmt"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
)

// censusCSV renders a census draw with the row-loop reference writer.
func censusCSV(tb testing.TB, n int, seed int64) (*dataset.Table, []byte) {
	tb.Helper()
	tab, err := generator.Generate(generator.Config{N: n, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.ReferenceWriteCSV(&buf, tab); err != nil {
		tb.Fatal(err)
	}
	return tab, buf.Bytes()
}

// TestCensusPublishPathMatchesReference pins both halves of the publish
// path on census draws: the ingester builds the per-cell reference's
// dictionaries and codes, and WriteCSV writes the row-loop reference's
// bytes for the raw draw and for a generalized, suppressed release.
func TestCensusPublishPathMatchesReference(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	for seed := int64(1); seed <= 3; seed++ {
		tab, csv := censusCSV(t, n, seed)
		want, err := dataset.ReferenceReadCSV(bytes.NewReader(csv), generator.Schema())
		if err != nil {
			t.Fatal(err)
		}
		got, err := dataset.IngestCSVTable(bytes.NewReader(csv), generator.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.SameEncoding(got, want); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}

		anon, err := hierarchy.GeneralizeTable(tab, generator.Hierarchies(), []int{1, 2, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		var rows []int
		for i := int(seed); i < anon.Len(); i += 37 {
			rows = append(rows, i)
		}
		if anon, err = hierarchy.SuppressRows(anon, rows); err != nil {
			t.Fatal(err)
		}
		for name, rel := range map[string]*dataset.Table{"draw": tab, "release": anon} {
			var got, want bytes.Buffer
			if err := dataset.WriteCSV(&got, rel); err != nil {
				t.Fatal(err)
			}
			if err := dataset.ReferenceWriteCSV(&want, rel); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("seed %d, %s: WriteCSV differs from the row-loop reference", seed, name)
			}
		}
	}
}

// benchSink keeps the benchmarks' results live.
var benchSink *dataset.Table

// The three benchmarks below time the publish path's two halves at
// N=1M. BenchmarkIngestDistinct1M is the case the field-text memo cannot
// help: every text is new, so it shows what the memo and its cutoff cost.

func BenchmarkIngestCensus1M(b *testing.B) {
	_, csv := censusCSV(b, 1000000, 1)
	b.SetBytes(int64(len(csv)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := dataset.IngestCSVTable(bytes.NewReader(csv), generator.Schema())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tab
	}
}

func BenchmarkIngestDistinct1M(b *testing.B) {
	schema := dataset.MustSchema(dataset.Attribute{Name: "Id", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier})
	var buf bytes.Buffer
	buf.WriteString("Id\n")
	for i := 0; i < 1000000; i++ {
		fmt.Fprintf(&buf, "p%07d\n", i)
	}
	csv := buf.Bytes()
	b.SetBytes(int64(len(csv)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := dataset.IngestCSVTable(bytes.NewReader(csv), schema)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tab
	}
}

func BenchmarkWriteCSV1M(b *testing.B) {
	tab, err := generator.Generate(generator.Config{N: 1000000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := dataset.WriteCSV(&buf, tab); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
