package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/attack"
	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/experiment"
	"microdata/internal/generator"
	"microdata/internal/measure"
	"microdata/internal/telemetry/resultpack"
)

// workload is one named input and the job the benchmark repeats on it in a
// closed loop: one client, each job starting when the previous one ends.
type workload struct {
	name string
	// warmup is the number of untimed jobs run before timing starts.
	warmup int
	// setup builds the workload's inputs from the seed.
	setup func(ctx context.Context, seed int64) (*instance, error)
}

// instance is one workload's inputs, ready to run jobs on.
type instance struct {
	// job runs one job; it is the only code the benchmark times.
	job func(ctx context.Context) (outcome, error)
	// census returns the census draw the job's searches run on, for the
	// input metrics of the traced run. It may draw the table again.
	census func() (*dataset.Table, error)
	// csvMB is the size of the CSV each job ingests (0: it ingests none).
	csvMB float64
	// seed, n and k describe the inputs in the perf pack's fingerprint.
	seed int64
	n, k int
}

// outcome is what one job hands to its correctness checks.
type outcome struct {
	// verify checks the job's outputs after its timer has stopped and
	// returns a digest that every job of a run must repeat.
	verify func() (string, error)
	// classes holds the equivalence-class count of each release the job
	// produced or assessed.
	classes []int
	// comparisons counts the ▶-comparator calls the job made.
	comparisons int
}

// sizes sets the input sizes of the workloads. The benchmark runs at
// defaultSizes; the tests shrink them.
type sizes struct {
	lattice, release, assess int
	// pack is the sealed result pack paper-replay replays, relative to the
	// directory the benchmark runs in.
	pack string
}

var defaultSizes = sizes{
	lattice: 100_000,
	release: 1_000_000,
	assess:  10_000,
	pack:    "results/census-1k.json",
}

// workloads lists the benchmark's workloads. Their names are stable, since
// performance claims cite them. README.md says why each exists.
func workloads(sz sizes) []workload {
	return []workload{
		latticeWorkload("lattice-k", sz.lattice, func(seed int64) algorithm.Config {
			return censusConfig(5, seed)
		}),
		latticeWorkload("lattice-diverse", sz.lattice, func(seed int64) algorithm.Config {
			cfg := censusConfig(5, seed)
			cfg.Metric = algorithm.MetricDM
			cfg.MinLDiversity = 2
			cfg.MinEntropyL = 1.5
			return cfg
		}),
		releaseWorkload(sz.release),
		assessWorkload(sz.assess),
		replayWorkload(sz.pack),
	}
}

// censusConfig is the configuration the paper experiments use on the census
// draw: k-anonymity, at most 5% of the rows suppressed, the loss metric.
func censusConfig(k int, seed int64) algorithm.Config {
	return algorithm.Config{
		K:              k,
		Hierarchies:    generator.Hierarchies(),
		Taxonomies:     generator.Taxonomies(),
		MaxSuppression: 0.05,
		Metric:         algorithm.MetricLM,
		Seed:           seed,
	}
}

// latticeWorkload runs the four lattice searches on one census draw, each
// with a fresh engine.
func latticeWorkload(name string, n int, config func(seed int64) algorithm.Config) workload {
	return workload{
		name:   name,
		warmup: 1,
		setup: func(_ context.Context, seed int64) (*instance, error) {
			tab, err := generator.Generate(generator.Config{N: n, Seed: seed})
			if err != nil {
				return nil, err
			}
			cfg := config(seed)
			return &instance{
				job: func(ctx context.Context) (outcome, error) {
					return latticeJob(ctx, tab, cfg)
				},
				census: func() (*dataset.Table, error) { return tab, nil },
				seed:   seed, n: n, k: cfg.K,
			}, nil
		},
	}
}

func latticeJob(ctx context.Context, tab *dataset.Table, cfg algorithm.Config) (outcome, error) {
	// optimal comes first: its exhaustive sweep bounds the others' cost.
	algs := []algorithm.Algorithm{optimal.New(), ola.New(), samarati.New(), incognito.New()}
	results := make([]*algorithm.Result, len(algs))
	for i, alg := range algs {
		err := traced(ctx, "algorithm.AnonymizeContext", func(ctx context.Context) (err error) {
			results[i], err = algorithm.AnonymizeContext(ctx, alg, tab, cfg)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
	}
	return outcome{
		verify:  func() (string, error) { return checkSearches(tab, cfg, results) },
		classes: classCounts(results),
	}, nil
}

// checkSearches checks every release of a lattice job and that the
// exhaustive search, results[0], costs no more than any other search. The
// digest is each search's node and cost.
func checkSearches(tab *dataset.Table, cfg algorithm.Config, results []*algorithm.Result) (string, error) {
	var digest strings.Builder
	costs := make([]float64, len(results))
	for i, r := range results {
		if err := checkRelease(tab, r, cfg); err != nil {
			return "", err
		}
		c, err := algorithm.ResultCost(r, tab, cfg)
		if err != nil {
			return "", fmt.Errorf("%s: cost: %w", r.Algorithm, err)
		}
		costs[i] = c
		fmt.Fprintf(&digest, "%s %v %x\n", r.Algorithm, r.Levels, math.Float64bits(c))
	}
	for i := 1; i < len(results); i++ {
		if costs[0] > costs[i] {
			return "", fmt.Errorf("%s costs %v, more than %s's %v", results[0].Algorithm, costs[0], results[i].Algorithm, costs[i])
		}
	}
	return digest.String(), nil
}

// checkRelease checks one release against its configuration: it keeps every
// tuple, grouping it afresh yields classes that meet k and every configured
// diversity requirement (the all-star class exempt), and it suppresses no
// more rows than the budget allows.
func checkRelease(orig *dataset.Table, r *algorithm.Result, cfg algorithm.Config) error {
	if r.Table.Len() != orig.Len() {
		return fmt.Errorf("%s: release has %d rows, the input %d", r.Algorithm, r.Table.Len(), orig.Len())
	}
	p, err := eqclass.FromTable(r.Table)
	if err != nil {
		return fmt.Errorf("%s: group release: %w", r.Algorithm, err)
	}
	ok, err := algorithm.SatisfiesConstraints(p, r.Table, cfg)
	if err != nil {
		return fmt.Errorf("%s: check release: %w", r.Algorithm, err)
	}
	if !ok {
		return fmt.Errorf("%s: release violates its privacy requirements", r.Algorithm)
	}
	if s, budget := len(r.Suppressed), cfg.Budget(orig.Len()); s > budget {
		return fmt.Errorf("%s: release suppresses %d rows, the budget is %d", r.Algorithm, s, budget)
	}
	return nil
}

func classCounts(results []*algorithm.Result) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Partition.NumClasses()
	}
	return out
}

// releaseWorkload is the custodian's publish path: ingest a census CSV,
// anonymize it with datafly, write the release as CSV.
func releaseWorkload(n int) workload {
	return workload{
		name:   "release-1m",
		warmup: 1,
		setup: func(_ context.Context, seed int64) (*instance, error) {
			tab, err := generator.Generate(generator.Config{N: n, Seed: seed})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := dataset.WriteCSV(&buf, tab); err != nil {
				return nil, fmt.Errorf("render census CSV: %w", err)
			}
			// Only the CSV bytes outlive set-up, so the draw adds nothing
			// to the jobs' peak memory.
			csv := buf.Bytes()
			cfg := censusConfig(5, seed)
			return &instance{
				job: func(ctx context.Context) (outcome, error) {
					return releaseJob(ctx, csv, n, cfg)
				},
				census: func() (*dataset.Table, error) {
					return generator.Generate(generator.Config{N: n, Seed: seed})
				},
				csvMB: float64(len(csv)) / (1 << 20),
				seed:  seed, n: n, k: cfg.K,
			}, nil
		},
	}
}

func releaseJob(ctx context.Context, csv []byte, n int, cfg algorithm.Config) (outcome, error) {
	var tab *dataset.Table
	err := traced(ctx, "dataset.IngestCSVTable", func(context.Context) (err error) {
		tab, err = dataset.IngestCSVTable(bytes.NewReader(csv), generator.Schema())
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var r *algorithm.Result
	err = traced(ctx, "algorithm.AnonymizeContext", func(ctx context.Context) (err error) {
		r, err = algorithm.AnonymizeContext(ctx, datafly.New(), tab, cfg)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	// The release is hashed as it is written, the way a custodian
	// checksums what it publishes; the hash is the job's digest.
	h := sha256.New()
	if err := traced(ctx, "dataset.WriteCSV", func(context.Context) error { return dataset.WriteCSV(h, r.Table) }); err != nil {
		return outcome{}, err
	}
	digest := hex.EncodeToString(h.Sum(nil))
	return outcome{
		verify: func() (string, error) {
			if tab.Len() != n {
				return "", fmt.Errorf("ingested %d rows, the CSV holds %d", tab.Len(), n)
			}
			return digest, checkRelease(tab, r, cfg)
		},
		classes: []int{r.Partition.NumClasses()},
	}, nil
}

// assessWorkload compares candidate releases of one census draw, the
// paper's own use: per-tuple property vectors, the scalar summary, the
// record-linkage attacks, and ▶-comparator tournaments.
func assessWorkload(n int) workload {
	return workload{
		name:   "assess-10k",
		warmup: 1,
		setup: func(ctx context.Context, seed int64) (*instance, error) {
			tab, err := generator.Generate(generator.Config{N: n, Seed: seed})
			if err != nil {
				return nil, err
			}
			// The journalist's population is the sample plus a second draw
			// of the same size, as the sealed result packs build it.
			extra, err := generator.Generate(generator.Config{N: n, Seed: seed + 1})
			if err != nil {
				return nil, err
			}
			pop, err := concat(tab, extra)
			if err != nil {
				return nil, err
			}
			cfg := censusConfig(5, seed)
			var releases []*dataset.Table
			for _, alg := range []algorithm.Algorithm{datafly.New(), optimal.New(), mondrian.New(), samarati.New()} {
				r, err := algorithm.AnonymizeContext(ctx, alg, tab, cfg)
				if err != nil {
					return nil, fmt.Errorf("release %s: %w", alg.Name(), err)
				}
				releases = append(releases, r.Table)
			}
			return &instance{
				job: func(ctx context.Context) (outcome, error) {
					return assessJob(ctx, tab, pop, releases)
				},
				census: func() (*dataset.Table, error) { return tab, nil },
				seed:   seed, n: n, k: cfg.K,
			}, nil
		},
	}
}

func concat(tables ...*dataset.Table) (*dataset.Table, error) {
	c := dataset.NewColumnar(tables[0].Schema)
	for _, t := range tables {
		for i := 0; i < t.Len(); i++ {
			row := make([]dataset.Value, t.Schema.Len())
			for j := range row {
				row[j] = t.At(i, j)
			}
			if err := c.AppendRow(row); err != nil {
				return nil, err
			}
		}
	}
	return c.Table(), nil
}

// assessment is everything one job measured on one release.
type assessment struct {
	properties core.PropertySet
	summary    *measure.Summary
	prosecutor core.PropertyVector
	marketer   float64
	journalist core.PropertyVector
}

func assessJob(ctx context.Context, orig, pop *dataset.Table, releases []*dataset.Table) (outcome, error) {
	taxonomies := generator.Taxonomies()
	props := []measure.Property{
		measure.ClassSize(), measure.SensitiveCount(), measure.DistinctSensitive(),
		measure.BreachSafety(), measure.TClosenessSafety(),
		measure.RetainedInformation(), measure.Discernibility(),
	}
	out := make([]assessment, len(releases))
	classes := make([]int, len(releases))
	for i, rel := range releases {
		a := &out[i]
		var mc *measure.Context
		var adv *attack.Adversary
		steps := []struct {
			name string
			fn   func(ctx context.Context) error
		}{
			{"measure.NewContext", func(context.Context) (err error) {
				mc, err = measure.NewContext(orig, rel, taxonomies)
				return err
			}},
			{"measure.Measure", func(context.Context) (err error) {
				a.properties, err = measure.Measure(mc, props...)
				return err
			}},
			{"measure.Summarize", func(context.Context) (err error) {
				a.summary, err = measure.Summarize(mc)
				return err
			}},
			{"attack.NewAdversary", func(context.Context) (err error) {
				adv, err = attack.NewAdversary(rel, taxonomies)
				return err
			}},
			{"attack.ProsecutorVector", func(ctx context.Context) (err error) {
				a.prosecutor, err = attack.ProsecutorVectorContext(ctx, orig, adv)
				return err
			}},
			{"attack.MarketerRisk", func(context.Context) (err error) {
				a.marketer, err = attack.MarketerRisk(orig, adv)
				return err
			}},
			{"attack.JournalistVector", func(ctx context.Context) (err error) {
				a.journalist, err = attack.JournalistVectorContext(ctx, orig, pop, adv)
				return err
			}},
		}
		for _, s := range steps {
			if err := traced(ctx, s.name, s.fn); err != nil {
				return outcome{}, fmt.Errorf("release %d: %s: %w", i, s.name, err)
			}
		}
		classes[i] = mc.Partition.NumClasses()
	}

	sizes := make([]core.PropertyVector, len(out))
	for i := range out {
		sizes[i] = out[i].properties[0]
	}
	comparators := []core.Comparator{core.CovBetter(), core.SprBetter(), core.HvLogBetter(), core.MinBetter()}
	orders := make([][]int, len(comparators))
	for ci, cmp := range comparators {
		err := traced(ctx, "core.Tournament", func(context.Context) error {
			res, err := core.Tournament(sizes, cmp)
			if err == nil {
				orders[ci] = res.Order
			}
			return err
		})
		if err != nil {
			return outcome{}, fmt.Errorf("tournament %s: %w", cmp.Name(), err)
		}
	}
	n := len(sizes)
	return outcome{
		verify:      func() (string, error) { return checkAssessments(out, orders) },
		classes:     classes,
		comparisons: len(comparators) * n * (n - 1) / 2,
	}, nil
}

// checkAssessments checks that no victim's prosecutor risk exceeds 1/k for
// the release's actual k, and digests every vector, summary, risk and
// tournament order.
func checkAssessments(out []assessment, orders [][]int) (string, error) {
	h := sha256.New()
	floats := func(v []float64) {
		for _, x := range v {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	for i, a := range out {
		k := a.summary.KAnonymity
		worst := 0.0
		for _, r := range a.prosecutor {
			worst = math.Max(worst, r)
		}
		if k < 1 || worst > 1/float64(k) {
			return "", fmt.Errorf("release %d: worst prosecutor risk %v exceeds 1/k for k=%d", i, worst, k)
		}
		for _, v := range a.properties {
			floats(v)
		}
		// EntropyL jitters in its last bits (see replayULPs); six decimals
		// pin it where that jitter cannot show.
		s := *a.summary
		s.EntropyL = math.Round(s.EntropyL*1e6) / 1e6
		sum, err := json.Marshal(s)
		if err != nil {
			return "", err
		}
		h.Write(sum)
		floats(a.prosecutor)
		floats([]float64{a.marketer})
		floats(a.journalist)
	}
	fmt.Fprint(h, orders)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// replayWorkload replays the golden result pack: every paper artifact at
// N=1k, with its seed taken from the pack.
func replayWorkload(path string) workload {
	return workload{
		name:   "paper-replay",
		warmup: 0,
		setup: func(context.Context, int64) (*instance, error) {
			recorded, err := resultpack.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return &instance{
				job: func(ctx context.Context) (outcome, error) {
					return replayJob(ctx, recorded)
				},
				census: func() (*dataset.Table, error) {
					return generator.Generate(generator.Config{N: recorded.Env.N, Seed: recorded.Env.Seed})
				},
				seed: recorded.Env.Seed, n: recorded.Env.N, k: recorded.Env.K,
			}, nil
		},
	}
}

func replayJob(ctx context.Context, recorded *resultpack.Pack) (outcome, error) {
	var replayed *resultpack.Pack
	err := traced(ctx, "experiment.ReplayPack", func(ctx context.Context) (err error) {
		replayed, err = experiment.ReplayPack(ctx, recorded)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	var divs []resultpack.Divergence
	_ = traced(ctx, "resultpack.Diff", func(context.Context) error {
		divs = resultpack.Diff(recorded, replayed, resultpack.DiffOptions{ULPs: replayULPs})
		return nil
	})
	var classes []int
	for _, row := range replayed.Algorithms {
		if row.Failed == "" {
			classes = append(classes, row.Classes)
		}
	}
	return outcome{
		verify:  func() (string, error) { return "", checkReplay(divs) },
		classes: classes,
	}, nil
}

// replayULPs is the float tolerance of the replay check. The pack's own 4
// ULPs is too tight for a repeated replay: privacy.EntropyLDiversity sums a
// class's entropy in map order, so entropy_l jitters between runs (6 ULPs
// seen at algorithms[k=50/genetic]). Reordering the at most ten terms of
// an entropy H ≤ ln 10 moves H by at most 2·9·2⁻⁵³·ln 10, and so exp(H) by
// at most 42 ULPs.
const replayULPs = 64

// checkReplay passes only a replay with no divergence from the recorded
// pack: floats agree to replayULPs, everything else exactly.
func checkReplay(divs []resultpack.Divergence) error {
	if len(divs) == 0 {
		return nil
	}
	return fmt.Errorf("replay diverges from the recorded pack in %d field(s), first %s", len(divs), divs[0])
}
