// Replay verification: `compare -verify pack.json` re-runs whatever a
// sealed result pack records and diffs the fresh results against the
// recorded ones field-by-field. The pack's source decides the replay
// strategy: census packs regenerate the fingerprinted dataset draw and
// re-run the capture (anonbench's producer), paper packs recompute from
// the embedded tables, files packs re-read the recorded paths after
// checking their fingerprints.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"microdata/internal/experiment"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

// verify replays the sealed pack at path and reports the field-level
// verdict: nil on agreement, ExitVerification (2) when the pack or a
// fingerprinted input was edited after sealing, ExitDrift (5) when the
// replayed results diverge from the recorded ones (the divergences are
// written to errw, one path-level diagnostic per line), ExitInvalid (6)
// for documents this binary cannot replay.
func verify(w, errw io.Writer, path string, ulps uint64) error {
	recorded, err := resultpack.ReadFile(path)
	if err != nil {
		return err
	}
	replayed, err := replay(recorded)
	if err != nil {
		return err
	}
	divs := resultpack.Diff(recorded, replayed, resultpack.DiffOptions{ULPs: ulps})
	if len(divs) > 0 {
		resultpack.WriteDivergences(errw, divs)
		return perf.Exit(perf.ExitDrift, fmt.Errorf(
			"%s: replayed results diverge from the recorded ones in %d field(s)", path, len(divs)))
	}
	fmt.Fprintf(w, "verified: %s (source=%s, %s, sha256:%s)\n",
		path, recorded.Source, packShape(recorded), recorded.Manifest.Digest)
	return nil
}

func packShape(p *resultpack.Pack) string {
	switch p.Source {
	case resultpack.SourceCensus:
		return fmt.Sprintf("N=%d seed=%d: %d algorithm rows, %d attack rows, %d tables replayed",
			p.Env.N, p.Env.Seed, len(p.Algorithms), len(p.Attack), len(p.Tables))
	default:
		return fmt.Sprintf("%d comparisons replayed", len(p.Comparisons))
	}
}

func replay(p *resultpack.Pack) (*resultpack.Pack, error) {
	switch p.Source {
	case resultpack.SourceCensus:
		return experiment.ReplayPack(context.Background(), p)
	case resultpack.SourcePaper:
		return comparePaper(io.Discard)
	case resultpack.SourceFiles:
		return replayFiles(p)
	default:
		return nil, perf.Invalidf("pack records unknown source %q", p.Source)
	}
}

// replayFiles re-reads the three recorded CSVs — each must still hash to
// its sealed fingerprint (ExitVerification otherwise) — and re-runs the
// comparison.
func replayFiles(p *resultpack.Pack) (*resultpack.Pack, error) {
	paths := map[string]string{}
	for _, f := range p.Files {
		paths[f.Role] = f.Path
		raw, err := os.ReadFile(f.Path)
		if err != nil {
			return nil, perf.Exit(perf.ExitInvalid, fmt.Errorf("recorded input: %w", err))
		}
		if got := perf.Digest(raw); got != f.SHA256 {
			return nil, perf.Exit(perf.ExitVerification, fmt.Errorf(
				"%s (%s input): content hash %s does not match the sealed fingerprint %s",
				f.Path, f.Role, got, f.SHA256))
		}
	}
	for _, role := range []string{"orig", "a", "b"} {
		if paths[role] == "" {
			return nil, perf.Invalidf("files-source pack records no %q input", role)
		}
	}
	return compareFiles(io.Discard, paths["orig"], paths["a"], paths["b"])
}
