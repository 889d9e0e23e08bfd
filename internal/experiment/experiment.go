// Package experiment implements the reproduction harness: one experiment
// per table, figure and worked example in the paper (E1–E13), plus the
// scaled algorithm-comparison studies the framework was built for (E14,
// E15). Each experiment writes a self-describing text report; the
// anonbench command exposes them, and the test suite pins their numbers.
package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"sort"
	"time"

	"microdata/internal/telemetry"
	"microdata/internal/telemetry/resultpack"
)

// Options tunes the scaled experiments; the zero value picks defaults
// suitable for interactive runs.
type Options struct {
	// CensusN is the synthetic census size for E14/E15 (default 1000).
	CensusN int
	// Ks are the k values swept in E14 (default 2, 5, 10, 25, 50).
	Ks []int
	// Seed drives the census draw and stochastic algorithms (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.CensusN <= 0 {
		o.CensusN = 1000
	}
	if len(o.Ks) == 0 {
		o.Ks = []int{2, 5, 10, 25, 50}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md ("E1".."E15").
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper artifact reproduced ("Table 2", ...).
	Artifact string
	// Run writes the report; it honors ctx cancellation for the
	// engine-backed experiments.
	Run func(ctx context.Context, w io.Writer) error
}

// Registry returns all experiments, ordered by ID.
func Registry(opts Options) []Experiment {
	opts = opts.withDefaults()
	exps := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(),
		e9(), e10(), e11(), e12(), e13(),
		e14(opts), e15(opts), e16(opts), e17(opts), e18(opts), e19(opts),
	}
	sort.Slice(exps, func(i, j int) bool { return idNum(exps[i].ID) < idNum(exps[j].ID) })
	return exps
}

func idNum(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Find locates an experiment by ID.
func Find(id string, opts Options) (Experiment, bool) {
	for _, e := range Registry(opts) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, each under its own telemetry
// span, writing the text report to w.
func RunAll(ctx context.Context, w io.Writer, opts Options) error {
	for _, e := range Registry(opts) {
		if err := runOne(ctx, w, e, nil); err != nil {
			return err
		}
	}
	return nil
}

// RunByID executes one experiment (see RunAll). Alongside the text report
// the experiment's full output is digested into rec, the provenance trail
// CaptureResults seals; a nil rec records nothing.
func RunByID(ctx context.Context, w io.Writer, id string, opts Options, rec *resultpack.TableRecorder) error {
	e, ok := Find(id, opts)
	if !ok {
		return fmt.Errorf("experiment: unknown id %q", id)
	}
	return runOne(ctx, w, e, rec)
}

func runOne(ctx context.Context, w io.Writer, e Experiment, rec *resultpack.TableRecorder) error {
	ctx, sp := telemetry.Start(ctx, "experiment."+e.ID,
		telemetry.String("title", e.Title), telemetry.String("artifact", e.Artifact))
	defer sp.End()
	telemetry.L().Info("experiment: starting", "id", e.ID, "title", e.Title)
	start := time.Now()
	var dig *digestWriter
	if rec != nil {
		dig = &digestWriter{w: w, h: sha256.New()}
		w = dig
	}
	fmt.Fprintf(w, "=== %s: %s (%s) ===\n", e.ID, e.Title, e.Artifact)
	if err := e.Run(ctx, w); err != nil {
		telemetry.L().Error("experiment: failed", "id", e.ID, "error", err)
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	telemetry.L().Info("experiment: complete", "id", e.ID, "elapsed", time.Since(start))
	fmt.Fprintln(w)
	if dig != nil {
		var sum [sha256.Size]byte
		dig.h.Sum(sum[:0])
		rec.Add(e.ID, sum, dig.n)
	}
	return nil
}

// digestWriter tees report text into a SHA-256 state while counting bytes;
// the digest covers exactly what the runner writes for one experiment,
// header and trailing blank line included.
type digestWriter struct {
	w io.Writer
	h hash.Hash
	n int
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.h.Write(p)
	d.n += len(p)
	return d.w.Write(p)
}
