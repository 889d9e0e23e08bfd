package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"microdata/internal/algorithm"
	"microdata/internal/attack"
	"microdata/internal/dataset"
	"microdata/internal/generator"
	"microdata/internal/stats"
	"microdata/internal/telemetry"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// CaptureConfig selects what a result capture records. The zero value
// captures nothing; CLI callers enable the sections they need. Every
// enabled section is computed from the same seeded census draw, so a
// sealed capture is replayable bit-for-bit from its fingerprint.
type CaptureConfig struct {
	// Opts supplies the census size, k sweep and seed (defaults as in
	// Options.withDefaults).
	Opts Options
	// Experiments lists the E-series IDs whose full text reports are
	// digested into the pack's Tables section.
	Experiments []string
	// Algorithms enables the per-(k, algorithm) measure section over the
	// full k sweep.
	Algorithms bool
	// Attack enables the record-linkage risk section
	// (prosecutor/journalist/marketer) at the middle k.
	Attack bool
	// ReportWriter receives the experiment report text while it is being
	// digested (io.Discard when nil) — `anonbench -run all -result-out`
	// prints and seals in one pass.
	ReportWriter io.Writer
	// ExpectDatasetHash, when set, requires the regenerated census draw to
	// hash to this fingerprint; a mismatch aborts with an ExitVerification
	// error before any computation. Replay sets it from the recorded pack.
	ExpectDatasetHash string
}

// CaptureResults runs the configured capture and returns the sealed
// result pack (schema "microdata/result-pack" v1).
func CaptureResults(ctx context.Context, cfg CaptureConfig) (*resultpack.Pack, error) {
	opts := cfg.Opts.withDefaults()
	ctx, sp := telemetry.Start(ctx, "experiment.capture",
		telemetry.Int("n", opts.CensusN), telemetry.Int64("seed", opts.Seed))
	defer sp.End()

	c, err := drawCensus(opts)
	if err != nil {
		return nil, err
	}
	tab := c.tab
	hash, err := tab.Hash()
	if err != nil {
		return nil, err
	}
	if cfg.ExpectDatasetHash != "" && hash != cfg.ExpectDatasetHash {
		return nil, perf.Exit(perf.ExitVerification, fmt.Errorf(
			"experiment: dataset fingerprint mismatch: draw (N=%d seed=%d) hashes to %s, pack records %s",
			opts.CensusN, opts.Seed, hash, cfg.ExpectDatasetHash))
	}
	midK := opts.Ks[len(opts.Ks)/2]
	env := perf.CaptureEnv()
	env.DatasetHash = hash
	env.Seed = opts.Seed
	env.N = opts.CensusN
	env.K = midK

	pack := &resultpack.Pack{
		Schema:        resultpack.Schema,
		Version:       resultpack.Version,
		Source:        resultpack.SourceCensus,
		CreatedUnixMS: time.Now().UnixMilli(),
		Env:           env,
		Ks:            append([]int(nil), opts.Ks...),
	}

	// The mid-k suite run serves both the Algorithms and the Attack
	// sections.
	var midRuns []*algRun
	var midErrs []error
	if cfg.Algorithms {
		for _, k := range opts.Ks {
			acfg := c.config(opts, k)
			runs, errs := runSuite(ctx, tab, acfg)
			rows, err := captureAlgorithms(ctx, acfg, runs, errs)
			if err != nil {
				return nil, err
			}
			pack.Algorithms = append(pack.Algorithms, rows...)
			if k == midK {
				midRuns, midErrs = runs, errs
			}
		}
	}
	if cfg.Attack {
		if midRuns == nil {
			midRuns, midErrs = runSuite(ctx, tab, c.config(opts, midK))
		}
		rows, pop, err := captureAttack(ctx, c, opts, midK, midRuns, midErrs)
		if err != nil {
			return nil, err
		}
		pack.Attack = rows
		pack.AttackPopulation = pop
	}
	if len(cfg.Experiments) > 0 {
		w := cfg.ReportWriter
		if w == nil {
			w = io.Discard
		}
		var rec resultpack.TableRecorder
		for _, id := range cfg.Experiments {
			if err := RunByIDRecorded(ctx, w, id, opts, &rec); err != nil {
				return nil, err
			}
			pack.Experiments = append(pack.Experiments, id)
		}
		pack.Tables = rec.Tables()
	}
	if err := perf.Seal(pack); err != nil {
		return nil, err
	}
	return pack, nil
}

// captureAlgorithms condenses one k's suite run into its sealed claims:
// chosen node, exact counts, measure values and the equivalence-class
// shape summary.
func captureAlgorithms(ctx context.Context, cfg algorithm.Config, runs []*algRun, errs []error) ([]resultpack.AlgorithmResult, error) {
	algs := suite()
	out := make([]resultpack.AlgorithmResult, 0, len(algs))
	for i, ar := range runs {
		if errs[i] != nil {
			if ctx.Err() != nil {
				return nil, errs[i]
			}
			out = append(out, resultpack.AlgorithmResult{
				Algorithm: algs[i].Name(), K: cfg.K, Failed: errs[i].Error(),
			})
			continue
		}
		res := resultpack.AlgorithmResult{
			Algorithm:  ar.name,
			K:          cfg.K,
			KActual:    ar.kActual,
			Classes:    ar.result.Partition.NumClasses(),
			Suppressed: len(ar.result.Suppressed),
			Measures: map[string]resultpack.Float{
				"lm":         resultpack.Float(ar.lm),
				"dm":         resultpack.Float(ar.dm),
				"cavg":       resultpack.Float(ar.cavg),
				"prec":       resultpack.Float(ar.prec),
				"distinct_l": resultpack.Float(ar.distinctL),
				"entropy_l":  resultpack.Float(ar.entropyL),
				"t_close":    resultpack.Float(ar.tClose),
			},
			ClassShape: shapeOf(ar.classSizes),
		}
		if ar.result.Levels != nil {
			res.Node = ar.result.Levels.String()
		}
		out = append(out, res)
	}
	return out, nil
}

func shapeOf(v []float64) *resultpack.ShapeStats {
	s := stats.Summarize(v)
	return &resultpack.ShapeStats{
		Min:    resultpack.Float(s.Min),
		Q1:     resultpack.Float(s.Q1),
		Median: resultpack.Float(s.Median),
		Q3:     resultpack.Float(s.Q3),
		Max:    resultpack.Float(s.Max),
		Gini:   resultpack.Float(s.Gini),
	}
}

// captureAttack measures the three adversary models on the suite's
// releases at one k. The journalist population is the sample plus a second
// draw of the same size at seed+1, recorded in the pack so replay rebuilds
// it exactly.
func captureAttack(ctx context.Context, c *census, opts Options, k int, runs []*algRun, errs []error) ([]resultpack.AttackRisk, *resultpack.PopulationSpec, error) {
	tab := c.tab
	extra, err := generator.Generate(generator.Config{N: opts.CensusN, Seed: opts.Seed + 1})
	if err != nil {
		return nil, nil, err
	}
	pc := dataset.NewColumnar(tab.Schema)
	if err := pc.AppendTable(tab, extra); err != nil {
		return nil, nil, err
	}
	population := pc.Table()
	popHash, err := population.Hash()
	if err != nil {
		return nil, nil, err
	}
	pop := &resultpack.PopulationSpec{N: population.Len(), Seed: opts.Seed + 1, Hash: popHash}

	algs := suite()
	out := make([]resultpack.AttackRisk, 0, len(algs))
	for i, ar := range runs {
		if errs[i] != nil {
			if ctx.Err() != nil {
				return nil, nil, errs[i]
			}
			out = append(out, resultpack.AttackRisk{Algorithm: algs[i].Name(), K: k, Failed: errs[i].Error()})
			continue
		}
		adv, err := attack.NewAdversary(ar.result.Table, c.tax)
		if err != nil {
			return nil, nil, err
		}
		pros, err := attack.ProsecutorVectorContext(ctx, tab, adv)
		if err != nil {
			return nil, nil, err
		}
		// Marketer reuses the adversary's cached prosecutor vector.
		marketer, err := attack.MarketerRisk(tab, adv)
		if err != nil {
			return nil, nil, err
		}
		jour, err := attack.JournalistVectorContext(ctx, tab, population, adv)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, resultpack.AttackRisk{
			Algorithm:  ar.name,
			K:          k,
			Prosecutor: riskOf(pros),
			Journalist: riskOf(jour),
			Marketer:   resultpack.Float(marketer),
		})
	}
	return out, pop, nil
}

func riskOf(v []float64) *resultpack.RiskSummary {
	return &resultpack.RiskSummary{
		Mean:   resultpack.Float(stats.Mean(v)),
		Median: resultpack.Float(stats.Median(v)),
		Max:    resultpack.Float(stats.Max(v)),
	}
}

// ReplayPack re-runs the capture a sealed census pack records — same N, k
// sweep, seed and section selection — and returns the fresh capture for
// diffing against the recorded claims. The regenerated draw
// must hash to the recorded dataset fingerprint (ExitVerification
// otherwise); non-census packs are replayed by their producing CLI, not
// here (ExitInvalid).
func ReplayPack(ctx context.Context, p *resultpack.Pack) (*resultpack.Pack, error) {
	if p.Source != resultpack.SourceCensus {
		return nil, perf.Invalidf("experiment: cannot replay a %q-source pack from the census harness", p.Source)
	}
	if p.Env.N <= 0 {
		return nil, perf.Invalidf("experiment: pack records no census size")
	}
	ks := p.Ks
	if len(ks) == 0 {
		// Degenerate packs (no algorithm sweep) still need a well-formed
		// Options; the recorded mid-k stands in.
		ks = []int{maxInt(p.Env.K, 1)}
	}
	cfg := CaptureConfig{
		Opts:              Options{CensusN: p.Env.N, Ks: ks, Seed: p.Env.Seed},
		Experiments:       append([]string(nil), p.Experiments...),
		Algorithms:        len(p.Algorithms) > 0,
		Attack:            len(p.Attack) > 0,
		ExpectDatasetHash: p.Env.DatasetHash,
	}
	return CaptureResults(ctx, cfg)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
