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
//	benchdiff -verify-only pack.json
//	benchdiff -skip-verify edited.json current.json   # drift-test unsealed edits
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/resultpack"
)

func main() {
	var (
		relThreshold = flag.Float64("rel-threshold", 0.25, "relative drift threshold (fraction of the baseline median)")
		skipVerify   = flag.Bool("skip-verify", false, "skip manifest verification (compare packs edited after sealing)")
		verifyOnly   = flag.Bool("verify-only", false, "verify a single pack's manifest and exit")
		verbose      = flag.Bool("v", false, "print every metric row, including ungated per-layer series")
		jsonOut      = flag.Bool("json", false, "emit the full drift comparison as canonical JSON on stdout instead of the table (exit codes unchanged)")
	)
	flag.CommandLine.Init("benchdiff", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(perf.ExitInvalid)
	}

	if err := realMain(flag.Args(), *relThreshold, *skipVerify, *verifyOnly, *verbose, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(perf.ExitCode(err))
	}
}

func realMain(args []string, relThreshold float64, skipVerify, verifyOnly, verbose, jsonOut bool) error {
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
	base, err := readPack(args[0], skipVerify)
	if err != nil {
		return err
	}
	cur, err := readPack(args[1], skipVerify)
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
// is zero (and single-rep MADs can be NaN too), which encoding/json
// rejects — the float fields marshal through resultpack.Float, pinning
// the same "NaN"/"+Inf"/"-Inf" spellings the result packs use.
func writeDiffJSON(w io.Writer, d *perf.Diff) error {
	type jsonRow struct {
		Benchmark string           `json:"benchmark"`
		Metric    string           `json:"metric"`
		Unit      string           `json:"unit,omitempty"`
		Base      resultpack.Float `json:"base_median"`
		BaseMAD   resultpack.Float `json:"base_mad"`
		Cur       resultpack.Float `json:"cur_median"`
		Ratio     resultpack.Float `json:"ratio"`
		Verdict   perf.Verdict     `json:"verdict"`
	}
	rows := make([]jsonRow, len(d.Rows))
	for i, r := range d.Rows {
		rows[i] = jsonRow{
			Benchmark: r.Benchmark, Metric: r.Metric, Unit: r.Unit,
			Base: resultpack.Float(r.Base), BaseMAD: resultpack.Float(r.BaseMAD),
			Cur: resultpack.Float(r.Cur), Ratio: resultpack.Float(r.Ratio),
			Verdict: r.Verdict,
		}
	}
	raw, err := json.Marshal(struct {
		BaseSuite  string           `json:"base_suite"`
		CurSuite   string           `json:"cur_suite"`
		Rows       []jsonRow        `json:"rows"`
		Missing    []string         `json:"missing,omitempty"`
		EnvChanges []perf.EnvChange `json:"env_changes,omitempty"`
		Drifted    int              `json:"drifted"`
		Improved   int              `json:"improved"`
	}{d.BaseSuite, d.CurSuite, rows, d.Missing, d.EnvChanges, d.Drifted, d.Improved})
	if err != nil {
		return err
	}
	canon, err := perf.Canonicalize(raw)
	if err != nil {
		return err
	}
	if _, err := w.Write(canon); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}

// readPack loads a pack, verifying the self-manifest unless told not to.
// With -skip-verify the document still has to be a well-formed pack of the
// supported schema/version — only the integrity seal is waived.
func readPack(path string, skipVerify bool) (*perf.Pack, error) {
	if !skipVerify {
		return perf.ReadFile(path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, perf.Invalidf("%v", err)
	}
	var p perf.Pack
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, perf.Invalidf("%s: parse pack: %v", path, err)
	}
	if p.Schema != perf.Schema || p.Version != perf.Version {
		return nil, perf.Invalidf("%s: not a %s v%d document", path, perf.Schema, perf.Version)
	}
	return &p, nil
}
