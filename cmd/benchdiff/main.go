// Command benchdiff compares two perf packs written by the repository
// benchmark (`bash benchmark/run.sh --workload W --pack pack.json`; see
// DESIGN.md "Perf packs") and gates on regression drift. It verifies both
// packs' self-manifests, runs the median/MAD comparator over every
// workload the baseline carries, prints the per-metric drift table, and
// exits with a stable code scripts and CI can branch on:
//
//	0  no drift (improvements and ungated per-layer changes are fine)
//	1  internal failure
//	2  a pack failed manifest verification (edited after sealing, or unsealed)
//	5  regression drift: an end-to-end metric (job_s, cpu_s, peak_rss_mb,
//	   setup_s) exceeded the noise envelope, or a baseline workload is
//	   missing from the current pack
//	6  invalid input (bad flags, unreadable or non-pack files)
//
// Usage:
//
//	benchdiff base.json current.json
//	benchdiff -rel-threshold 0.5 -v base.json current.json
//	benchdiff -verify-only pack.json    # either pack kind: perf or result pack
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"microdata/internal/telemetry/perf"
)

func main() {
	var (
		relThreshold = flag.Float64("rel-threshold", 0.25, "relative drift threshold (fraction of the baseline median)")
		verifyOnly   = flag.Bool("verify-only", false, "verify a single pack's manifest (perf or result pack) and exit")
		verbose      = flag.Bool("v", false, "print every metric row, including ungated per-layer series")
		jsonOut      = flag.Bool("json", false, "emit the full drift comparison as canonical JSON on stdout instead of the table (exit codes unchanged)")
	)
	flag.CommandLine.Init("benchdiff", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(perf.ExitInvalid)
	}

	if err := realMain(flag.Args(), *relThreshold, *verifyOnly, *verbose, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(perf.ExitCode(err))
	}
}

func realMain(args []string, relThreshold float64, verifyOnly, verbose, jsonOut bool) error {
	if verifyOnly {
		if len(args) != 1 {
			return perf.Invalidf("-verify-only takes exactly one pack (got %d args)", len(args))
		}
		if err := perf.VerifyFile(args[0]); err != nil {
			return err
		}
		fmt.Printf("%s: manifest ok\n", args[0])
		return nil
	}
	if len(args) != 2 {
		return perf.Invalidf("usage: benchdiff [flags] base.json current.json (got %d args)", len(args))
	}
	base, err := perf.ReadFile(args[0])
	if err != nil {
		return err
	}
	cur, err := perf.ReadFile(args[1])
	if err != nil {
		return err
	}
	d, err := perf.Compare(base, cur, perf.CompareOptions{RelThreshold: relThreshold})
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeDiffJSON(os.Stdout, d); err != nil {
			return err
		}
	} else {
		d.WriteTable(os.Stdout, verbose)
	}
	if !d.OK() {
		return perf.Exit(perf.ExitDrift,
			fmt.Errorf("regression drift: %d gated metrics drifted, %d baseline workloads missing", d.Drifted, len(d.Missing)))
	}
	return nil
}

// writeDiffJSON emits the comparison in the same canonical JSON form the
// packs themselves use (sorted keys, no HTML escaping, trailing newline),
// so the output is byte-stable for a given pair of packs and scripts can
// diff or archive it directly. Ratio is NaN whenever the baseline median
// is zero (and single-rep MADs can be NaN too); the row floats are
// perf.Float, which spells them "NaN", "+Inf" and "-Inf".
func writeDiffJSON(w io.Writer, d *perf.Diff) error {
	canon, err := perf.CanonicalMarshal(d)
	if err != nil {
		return err
	}
	_, err = w.Write(append(canon, '\n'))
	return err
}
