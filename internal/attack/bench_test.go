package attack

import (
	"fmt"
	"testing"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/dataset"
	"microdata/internal/generator"
)

// attackBenchRelease anonymizes an N-row census draw for the attack
// benchmarks below.
func attackBenchRelease(b *testing.B, n int) (tab, anon *dataset.Table) {
	b.Helper()
	tab, err := generator.Generate(generator.Config{N: n, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cfg := algorithm.Config{
		K: 5, Hierarchies: generator.Hierarchies(),
		MaxSuppression: 0.05, Taxonomies: generator.Taxonomies(),
	}
	r, err := mondrian.New().Anonymize(tab, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tab, r.Table
}

// BenchmarkProsecutorVector compares the naive row-scanning prosecutor
// pipeline against the region-indexed one. The indexed variant rebuilds
// the adversary every iteration so index construction and the table's
// resolution are charged to the measurement.
func BenchmarkProsecutorVector(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tab, anon := attackBenchRelease(b, n)
		naiveAdv, err := NewAdversary(anon, generator.Taxonomies())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NaiveProsecutorVector(tab, naiveAdv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ProsecutorVector(tab, adv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalistVector compares the naive per-victim population scan
// against the inverted, dictionary-resolved journalist pipeline.
// Population = 2× sample. The naive variant at N=10000 takes tens of
// seconds per iteration; use -benchtime=1x or a -bench filter for quick
// runs.
func BenchmarkJournalistVector(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		tab, anon := attackBenchRelease(b, n)
		extra, err := generator.Generate(generator.Config{N: n, Seed: 18})
		if err != nil {
			b.Fatal(err)
		}
		pc := dataset.NewColumnar(tab.Schema)
		if err := pc.AppendTable(tab, extra); err != nil {
			b.Fatal(err)
		}
		population := pc.Table()
		naiveAdv, err := NewAdversary(anon, generator.Taxonomies())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/naive", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NaiveJournalistVector(tab, population, naiveAdv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				adv, err := NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := JournalistVector(tab, population, adv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
