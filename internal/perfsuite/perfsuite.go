// Package perfsuite defines the canonical benchmark suites the perf-pack
// trajectory tracks — one named suite per headline hot path of the
// codebase, each producing BenchmarkSpecs for the internal/telemetry/perf
// harness:
//
//   - "groupby": equivalence-class grouping over a generalized census
//     release, columnar radix/hash group-by vs the signature-string
//     reference (the PR 6 46× claim);
//   - "engine": full-lattice evaluation-engine sweeps through the optimal
//     and datafly searches (the PR 1/PR 6 sweep claims);
//   - "attack": the record-linkage prosecutor/journalist pipeline, naive
//     reference vs region-indexed (the PR 3 claims) — with the indexed
//     vectors cross-validated element-identical to the naive ones during
//     setup, so a pack is only produced from verified computations;
//   - "ingest": CSV parsing straight into dictionary-encoded columns,
//     whole-reader, chunked-push and IngestCSV's read loop;
//   - "typedcol": the typed numeric column's min/max against the
//     per-Value row scan it replaces.
//
// Suites share one synthetic census draw per (N, Seed) so the pack's
// dataset fingerprint covers every benchmark input.
package perfsuite

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/attack"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/telemetry/perf"
)

// Options parameterize suite construction: the census draw and the
// anonymization config every suite derives its fixtures from.
type Options struct {
	N    int
	K    int
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 1000
	}
	if o.K <= 0 {
		o.K = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Names lists the registered suites in canonical order.
func Names() []string {
	return []string{"attack", "engine", "groupby", "ingest", "typedcol"}
}

// Resolve expands a -bench-suite selection ("all", one name, or a
// comma-separated list) into canonical-order suite specs. Unknown names
// return an ExitInvalid error.
func Resolve(selection string, opts Options) ([]perf.SuiteSpec, error) {
	opts = opts.withDefaults()
	want := map[string]bool{}
	if selection == "all" {
		for _, n := range Names() {
			want[n] = true
		}
	} else {
		for _, part := range strings.Split(selection, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if !contains(Names(), part) {
				return nil, perf.Invalidf("perfsuite: unknown suite %q (known: %s, or \"all\")",
					part, strings.Join(Names(), ", "))
			}
			want[part] = true
		}
	}
	if len(want) == 0 {
		return nil, perf.Invalidf("perfsuite: empty suite selection")
	}
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	var specs []perf.SuiteSpec
	for _, n := range names {
		spec, err := build(n, opts)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func contains(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}

func build(name string, opts Options) (perf.SuiteSpec, error) {
	switch name {
	case "groupby":
		return groupbySuite(opts)
	case "typedcol":
		return typedcolSuite(opts)
	case "engine":
		return engineSuite(opts)
	case "attack":
		return attackSuite(opts)
	case "ingest":
		return ingestSuite(opts)
	default:
		return perf.SuiteSpec{}, perf.Invalidf("perfsuite: unknown suite %q", name)
	}
}

// fixtures is the shared setup every suite starts from: the census draw,
// its hash, and the standard anonymization config.
func fixtures(opts Options) (*dataset.Table, string, algorithm.Config, error) {
	tab, err := generator.Generate(generator.Config{N: opts.N, Seed: opts.Seed})
	if err != nil {
		return nil, "", algorithm.Config{}, err
	}
	hash, err := tab.Hash()
	if err != nil {
		return nil, "", algorithm.Config{}, err
	}
	cfg := algorithm.Config{
		K:              opts.K,
		Hierarchies:    generator.Hierarchies(),
		Taxonomies:     generator.Taxonomies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Seed:           opts.Seed,
	}
	return tab, hash, cfg, nil
}

func suiteSpec(name, hash string, opts Options, benches ...perf.BenchmarkSpec) perf.SuiteSpec {
	return perf.SuiteSpec{
		Name: name, DatasetHash: hash, Seed: opts.Seed, N: opts.N, K: opts.K,
		Benchmarks: benches,
	}
}

// groupbySuite times equivalence-class grouping of a generalized release:
// the columnar code-vector group-by against the signature-string
// reference it is pinned element-identical to.
func groupbySuite(opts Options) (perf.SuiteSpec, error) {
	tab, hash, _, err := fixtures(opts)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	anon, err := hierarchy.GeneralizeTable(tab, generator.Hierarchies(), []int{2, 2, 1, 1})
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	qis := anon.Schema.QuasiIdentifiers()
	columnar := perf.BenchmarkSpec{
		Name: "columnar",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return func(ctx context.Context) error {
				_, err := eqclass.FromTable(anon)
				return err
			}, nil
		},
	}
	signatures := perf.BenchmarkSpec{
		Name: "signatures",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return func(ctx context.Context) error {
				sigs := make([]string, anon.Len())
				var sb strings.Builder
				for i := range sigs {
					sb.Reset()
					eqclass.WriteSignature(&sb, anon, i, qis)
					sigs[i] = sb.String()
				}
				_, err := eqclass.FromSignatures(sigs)
				return err
			}, nil
		},
	}
	return suiteSpec("groupby", hash, opts, columnar, signatures), nil
}

// sinkF defeats dead-code elimination of the typedcol kernel results.
var sinkF float64

// typedcolSuite times the typed numeric column's min/max on the census Age
// attribute against the per-Value row scan it replaces.
func typedcolSuite(opts Options) (perf.SuiteSpec, error) {
	tab, hash, _, err := fixtures(opts)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	j := tab.Schema.Index("Age")
	if j < 0 {
		return perf.SuiteSpec{}, fmt.Errorf("perfsuite: census schema has no Age attribute")
	}
	fc, ok := tab.Float64Column(j)
	if !ok {
		return perf.SuiteSpec{}, perf.Exit(perf.ExitVerification,
			fmt.Errorf("perfsuite: typedcol: Age column is not purely numeric"))
	}
	run := func(name string, f func() error) perf.BenchmarkSpec {
		return perf.BenchmarkSpec{
			Name: name,
			Setup: func(ctx context.Context) (func(context.Context) error, error) {
				return func(ctx context.Context) error { return f() }, nil
			},
		}
	}
	return suiteSpec("typedcol", hash, opts,
		run("minmax/typed", func() error {
			lo, hi, ok := fc.MinMax()
			if !ok {
				return fmt.Errorf("perfsuite: typedcol: empty column")
			}
			sinkF = lo + hi
			return nil
		}),
		run("minmax/value-scan", func() error {
			lo, hi := 0.0, 0.0
			for i := 0; i < tab.Len(); i++ {
				v := tab.At(i, j).Float()
				if i == 0 || v < lo {
					lo = v
				}
				if i == 0 || v > hi {
					hi = v
				}
			}
			sinkF = lo + hi
			return nil
		}),
	), nil
}

// engineSuite times full search runs of the two sweep-shaped algorithms:
// optimal (exhaustive full-lattice sweep) and datafly (greedy ascent) —
// each run builds a fresh engine, so precompute, memoization and
// materialization are all charged.
func engineSuite(opts Options) (perf.SuiteSpec, error) {
	tab, hash, cfg, err := fixtures(opts)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	bench := func(name string, alg algorithm.Algorithm) perf.BenchmarkSpec {
		return perf.BenchmarkSpec{
			Name: "sweep/" + name,
			Setup: func(ctx context.Context) (func(context.Context) error, error) {
				return func(ctx context.Context) error {
					_, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
					return err
				}, nil
			},
		}
	}
	return suiteSpec("engine", hash, opts,
		bench("optimal", optimal.New()),
		bench("datafly", datafly.New()),
	), nil
}

// attackSuite times the record-linkage pipeline on datafly and mondrian
// releases: naive reference vs region-indexed prosecutor risk, and naive vs indexed journalist risk on a capped
// sample. Setup cross-validates the indexed vectors against the naive
// reference and fails with a verification error on any divergence.
func attackSuite(opts Options) (perf.SuiteSpec, error) {
	tab, hash, cfg, err := fixtures(opts)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	var benches []perf.BenchmarkSpec
	for _, alg := range []struct {
		name string
		alg  algorithm.Algorithm
	}{{"datafly", datafly.New()}, {"mondrian", mondrian.New()}} {
		alg := alg
		var anon *dataset.Table
		// release anonymizes the draw once, shared by this algorithm's
		// two prosecutor benchmarks (setup order is deterministic).
		release := func(ctx context.Context) (*dataset.Table, error) {
			if anon == nil {
				r, err := algorithm.AnonymizeContext(ctx, alg.alg, tab, cfg)
				if err != nil {
					return nil, err
				}
				anon = r.Table
			}
			return anon, nil
		}
		benches = append(benches,
			perf.BenchmarkSpec{
				Name: "prosecutor/" + alg.name + "/naive",
				Setup: func(ctx context.Context) (func(context.Context) error, error) {
					anon, err := release(ctx)
					if err != nil {
						return nil, err
					}
					adv, err := attack.NewAdversary(anon, generator.Taxonomies())
					if err != nil {
						return nil, err
					}
					return func(ctx context.Context) error {
						_, err := attack.NaiveProsecutorVector(tab, adv)
						return err
					}, nil
				},
			},
			prosecutorIndexed(alg.name, tab, release),
		)
	}
	jNaive, jIndexed, err := journalistBenches(opts, cfg)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	benches = append(benches, jNaive, jIndexed)
	return suiteSpec("attack", hash, opts, benches...), nil
}

// prosecutorIndexed builds an indexed prosecutor benchmark whose setup
// verifies the indexed vector element-identical to the naive reference.
// Each repetition builds a fresh adversary so index construction and
// victim memoization are charged to the measurement, mirroring the PR 3
// benchmark protocol.
func prosecutorIndexed(algName string, tab *dataset.Table, release func(context.Context) (*dataset.Table, error)) perf.BenchmarkSpec {
	return perf.BenchmarkSpec{
		Name: "prosecutor/" + algName + "/indexed",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			anon, err := release(ctx)
			if err != nil {
				return nil, err
			}
			naiveAdv, err := attack.NewAdversary(anon, generator.Taxonomies())
			if err != nil {
				return nil, err
			}
			want, err := attack.NaiveProsecutorVector(tab, naiveAdv)
			if err != nil {
				return nil, err
			}
			adv, err := attack.NewAdversary(anon, generator.Taxonomies())
			if err != nil {
				return nil, err
			}
			got, err := attack.ProsecutorVectorContext(ctx, tab, adv)
			if err != nil {
				return nil, err
			}
			if i := firstDiff(want, got); i >= 0 {
				return nil, perf.Exit(perf.ExitVerification, fmt.Errorf(
					"perfsuite: %s: indexed prosecutor vector diverges from naive at row %d: %g vs %g",
					algName, i, got[i], want[i]))
			}
			return func(ctx context.Context) error {
				adv, err := attack.NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					return err
				}
				_, err = attack.ProsecutorVectorContext(ctx, tab, adv)
				return err
			}, nil
		},
	}
}

// journalistBenches times journalist risk on a sample capped at 2000 rows
// against a doubled population — the naive journalist scan is quadratic
// in the population and would otherwise dominate the suite.
func journalistBenches(opts Options, cfg algorithm.Config) (naive, indexed perf.BenchmarkSpec, err error) {
	m := opts.N
	if m > 2000 {
		m = 2000
	}
	sample, err := generator.Generate(generator.Config{N: m, Seed: opts.Seed})
	if err != nil {
		return naive, indexed, err
	}
	extra, err := generator.Generate(generator.Config{N: m, Seed: opts.Seed + 1})
	if err != nil {
		return naive, indexed, err
	}
	pc := dataset.NewColumnar(sample.Schema)
	if err := pc.AppendTable(sample, extra); err != nil {
		return naive, indexed, err
	}
	population := pc.Table()
	var anon *dataset.Table
	release := func(ctx context.Context) (*dataset.Table, error) {
		if anon == nil {
			r, err := algorithm.AnonymizeContext(ctx, mondrian.New(), sample, cfg)
			if err != nil {
				return nil, err
			}
			anon = r.Table
		}
		return anon, nil
	}
	naive = perf.BenchmarkSpec{
		Name: "journalist/mondrian/naive",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			anon, err := release(ctx)
			if err != nil {
				return nil, err
			}
			adv, err := attack.NewAdversary(anon, generator.Taxonomies())
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context) error {
				_, err := attack.NaiveJournalistVector(sample, population, adv)
				return err
			}, nil
		},
	}
	indexed = perf.BenchmarkSpec{
		Name: "journalist/mondrian/indexed",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			anon, err := release(ctx)
			if err != nil {
				return nil, err
			}
			naiveAdv, err := attack.NewAdversary(anon, generator.Taxonomies())
			if err != nil {
				return nil, err
			}
			want, err := attack.NaiveJournalistVector(sample, population, naiveAdv)
			if err != nil {
				return nil, err
			}
			vAdv, err := attack.NewAdversary(anon, generator.Taxonomies())
			if err != nil {
				return nil, err
			}
			got, err := attack.JournalistVectorContext(ctx, sample, population, vAdv)
			if err != nil {
				return nil, err
			}
			if i := firstDiff(want, got); i >= 0 {
				return nil, perf.Exit(perf.ExitVerification, fmt.Errorf(
					"perfsuite: journalist: indexed vector diverges from naive at row %d: %g vs %g",
					i, got[i], want[i]))
			}
			return func(ctx context.Context) error {
				adv, err := attack.NewAdversary(anon, generator.Taxonomies())
				if err != nil {
					return err
				}
				_, err = attack.JournalistVectorContext(ctx, sample, population, adv)
				return err
			}, nil
		},
	}
	return naive, indexed, nil
}

// firstDiff returns the first index where the vectors differ (exact float
// comparison — the indexed pipeline promises identical divisions), or -1.
func firstDiff(want, got []float64) int {
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if want[i] != got[i] {
			return i
		}
	}
	return -1
}

// ingestSuite times CSV parsing into dictionary-encoded columns: the
// whole-reader ReadCSVColumnar path, the chunk-tolerant push ingester fed
// 8 KiB chunks, and IngestCSV's 256 KiB read loop. The last case keeps
// its name, ingest-pipelined, from when IngestCSV overlapped reads with
// parsing: the committed baseline packs and the drift gate key on it.
func ingestSuite(opts Options) (perf.SuiteSpec, error) {
	tab, hash, _, err := fixtures(opts)
	if err != nil {
		return perf.SuiteSpec{}, err
	}
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, tab); err != nil {
		return perf.SuiteSpec{}, err
	}
	csvBytes := buf.Bytes()
	schema := tab.Schema
	reader := perf.BenchmarkSpec{
		Name: "readcsv-columnar",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return func(ctx context.Context) error {
				_, err := dataset.ReadCSVColumnar(bytes.NewReader(csvBytes), schema)
				return err
			}, nil
		},
	}
	const chunk = 8 << 10
	chunks := perf.BenchmarkSpec{
		Name: "ingester-chunks",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return func(ctx context.Context) error {
				ing := dataset.NewCSVIngester(schema)
				for off := 0; off < len(csvBytes); off += chunk {
					end := off + chunk
					if end > len(csvBytes) {
						end = len(csvBytes)
					}
					if _, err := ing.Write(csvBytes[off:end]); err != nil {
						return err
					}
				}
				return ing.Close()
			}, nil
		},
	}
	readLoop := perf.BenchmarkSpec{
		Name: "ingest-pipelined",
		Setup: func(ctx context.Context) (func(context.Context) error, error) {
			return func(ctx context.Context) error {
				_, err := dataset.IngestCSV(bytes.NewReader(csvBytes), schema)
				return err
			}, nil
		},
	}
	return suiteSpec("ingest", hash, opts, reader, chunks, readLoop), nil
}
