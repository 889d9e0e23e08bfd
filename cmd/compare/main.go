// Command compare evaluates two anonymizations of the same census-schema
// table with the paper's full comparison toolkit: scalar indices, dominance
// relations, the ▶cov/▶spr/▶rank/▶hv comparators on the privacy and
// utility property vectors, and the WTD multi-property verdict. With
// -result-out the verdicts are additionally sealed into a result pack
// (microdata/result-pack v1); with -verify a previously sealed pack is
// replayed against its recorded inputs and diffed field-by-field.
//
// Usage:
//
//	compare -orig census.csv -a mondrian.csv -b datafly.csv
//	compare -paper                         # compare the paper's T_3a, T_3b and T_4
//	compare -paper -result-out paper.json  # seal the verdicts
//	compare -verify results/census-1k.json # replay + diff a sealed pack
//
// Exit codes follow the stable contract shared with anonbench and benchdiff
// (see README "Exit codes"): 0 ok, 1 failure, 2 verification failure (a
// pack or input file edited after sealing), 5 divergence (replayed results
// differ from the recorded ones), 6 invalid input (bad flags, unreadable
// files, tables that don't match the original's size).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"microdata"
	"microdata/internal/telemetry/perf"
)

func main() {
	var (
		orig  = flag.String("orig", "", "original table CSV (census schema)")
		a     = flag.String("a", "", "first anonymization CSV")
		b     = flag.String("b", "", "second anonymization CSV")
		paper = flag.Bool("paper", false, "compare the paper's published tables instead of files")

		resultOut  = flag.String("result-out", "", "write a sealed result pack of the comparison verdicts to this path (\"-\" for stdout)")
		verifyPack = flag.String("verify", "", "replay a sealed result pack and diff it against the fresh results (exit 2 tamper, 5 divergence)")
		ulps       = flag.Uint64("ulps", 0, "ULP tolerance for float fields when diffing a -verify replay (0 = default 4)")

		verbose   = flag.Bool("v", false, "enable debug-level structured logging on stderr")
		logFormat = flag.String("log-format", "", "structured log format: text or json (implies logging even without -v)")
	)
	flag.CommandLine.Init("compare", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(perf.ExitInvalid)
	}
	if *verbose || *logFormat != "" {
		h, err := microdata.NewLogHandler(os.Stderr, *logFormat, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(perf.ExitInvalid)
		}
		microdata.SetLogHandler(h)
	}
	var err error
	if *verifyPack != "" {
		err = verify(os.Stdout, os.Stderr, *verifyPack, *ulps)
	} else {
		err = run(os.Stdout, *orig, *a, *b, *paper, *resultOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(perf.ExitCode(err))
	}
}

func run(w io.Writer, origPath, aPath, bPath string, paper bool, resultOut string) error {
	var pack *microdata.ResultPack
	var err error
	if paper {
		pack, err = comparePaper(w)
	} else {
		if origPath == "" || aPath == "" || bPath == "" {
			return perf.Invalidf("need -orig, -a and -b (or -paper, or -verify)")
		}
		pack, err = compareFiles(w, origPath, aPath, bPath)
	}
	if err != nil {
		return err
	}
	if resultOut != "" {
		if err := microdata.WriteResultPack(pack, resultOut); err != nil {
			return err
		}
		if resultOut != "-" {
			fmt.Fprintf(w, "result pack sealed: %s (sha256:%s)\n", resultOut, pack.Manifest.Digest)
		}
	}
	return nil
}

// comparePaper runs the paper's two published comparisons and returns them
// as an unsealed paper-source pack.
func comparePaper(w io.Writer) (*microdata.ResultPack, error) {
	orig := microdata.PaperT1()
	c1, err := comparePair(w, "T_3a", "T_3b", orig, microdata.PaperT3a(), microdata.PaperT3b(), nil)
	if err != nil {
		return nil, err
	}
	c2, err := comparePair(w, "T_3b", "T_4", orig, microdata.PaperT3b(), microdata.PaperT4(), nil)
	if err != nil {
		return nil, err
	}
	return newPack(microdata.ResultPackSourcePaper, []microdata.ResultComparisonRow{c1, c2}, nil), nil
}

// compareFiles compares two anonymization files against the original and
// returns a files-source pack whose fingerprints pin the three inputs.
func compareFiles(w io.Writer, origPath, aPath, bPath string) (*microdata.ResultPack, error) {
	var files []microdata.ResultFileFingerprint
	tabs := make(map[string]*microdata.Table, 3)
	for _, in := range []struct{ role, path string }{{"orig", origPath}, {"a", aPath}, {"b", bPath}} {
		tab, sum, err := readCensus(in.path)
		if err != nil {
			return nil, err
		}
		tabs[in.role] = tab
		files = append(files, microdata.ResultFileFingerprint{Role: in.role, Path: in.path, SHA256: sum})
	}
	c, err := comparePair(w, aPath, bPath, tabs["orig"], tabs["a"], tabs["b"], microdata.CensusTaxonomies())
	if err != nil {
		return nil, err
	}
	p := newPack(microdata.ResultPackSourceFiles, []microdata.ResultComparisonRow{c}, files)
	if p.Env.DatasetHash, err = microdata.TableHash(tabs["orig"]); err != nil {
		return nil, err
	}
	return p, nil
}

func newPack(source string, comparisons []microdata.ResultComparisonRow, files []microdata.ResultFileFingerprint) *microdata.ResultPack {
	return &microdata.ResultPack{
		Schema:        microdata.ResultPackSchema,
		Version:       microdata.ResultPackVersion,
		Source:        source,
		CreatedUnixMS: time.Now().UnixMilli(),
		Env:           perf.CaptureEnv(),
		Comparisons:   comparisons,
		Files:         files,
	}
}

// readCensus reads a census-schema CSV and fingerprints its raw bytes.
func readCensus(path string) (*microdata.Table, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", perf.Exit(perf.ExitInvalid, err)
	}
	t, err := microdata.ReadCSV(bytes.NewReader(raw), microdata.CensusSchema())
	if err != nil {
		return nil, "", perf.Exit(perf.ExitInvalid, fmt.Errorf("%s: %w", path, err))
	}
	return t, perf.Digest(raw), nil
}

// comparePair writes the human comparison report for one pair and returns
// the same verdicts as a result-pack row (side-neutral "left"/"right"/
// "tie" words, so the row is independent of the display names).
func comparePair(w io.Writer, nameA, nameB string, orig, ta, tb *microdata.Table, taxonomies map[string]*microdata.Taxonomy) (microdata.ResultComparisonRow, error) {
	row := microdata.ResultComparisonRow{Left: nameA, Right: nameB, Privacy: map[string]string{}}
	if ta.Len() != orig.Len() || tb.Len() != orig.Len() {
		return row, perf.Invalidf("tables must have the original's size (suppressed tuples stay as '*')")
	}
	pa, err := microdata.PartitionTable(ta)
	if err != nil {
		return row, err
	}
	pb, err := microdata.PartitionTable(tb)
	if err != nil {
		return row, err
	}
	privA := microdata.PropertyVector(microdata.ClassSizeVector(pa))
	privB := microdata.PropertyVector(microdata.ClassSizeVector(pb))
	lossCfg := microdata.LossConfig{Taxonomies: taxonomies}
	utilA, err := microdata.UtilityVector(ta, orig, lossCfg)
	if err != nil {
		return row, err
	}
	utilB, err := microdata.UtilityVector(tb, orig, lossCfg)
	if err != nil {
		return row, err
	}

	row.KLeft, row.KRight = microdata.KAnonymity(pa), microdata.KAnonymity(pb)
	fmt.Fprintf(w, "=== %s vs %s ===\n", nameA, nameB)
	fmt.Fprintf(w, "scalar view: k(%s)=%d k(%s)=%d\n", nameA, row.KLeft, nameB, row.KRight)

	rel, err := microdata.CompareVectors(privA, privB)
	if err != nil {
		return row, err
	}
	row.Dominance = fmt.Sprint(rel)
	fmt.Fprintf(w, "dominance (privacy vectors): %v\n", rel)

	n := orig.Len()
	dmax := make(microdata.PropertyVector, n)
	for i := range dmax {
		dmax[i] = float64(n)
	}
	comparators := []microdata.Comparator{
		microdata.MinBetter(),
		microdata.CovBetter(),
		microdata.SprBetter(),
		microdata.RankComparator{Dmax: dmax},
		microdata.HvLogBetter(),
	}
	for _, c := range comparators {
		out, err := c.Compare(privA, privB)
		if err != nil {
			fmt.Fprintf(w, "privacy %-6s error: %v\n", c.Name(), err)
			row.Privacy[c.Name()] = "error"
			continue
		}
		row.Privacy[c.Name()] = word(out)
		fmt.Fprintf(w, "privacy %-6s %s\n", c.Name()+":", side(out, nameA, nameB))
	}
	covU, err := microdata.CovBetter().Compare(microdata.PropertyVector(utilA), microdata.PropertyVector(utilB))
	if err != nil {
		return row, err
	}
	row.UtilityCov = word(covU)
	fmt.Fprintf(w, "utility cov:    %s\n", side(covU, nameA, nameB))

	wtd, err := microdata.NewWTD([]float64{0.5, 0.5}, []microdata.BinaryIndex{microdata.PCov, microdata.PCov})
	if err != nil {
		return row, err
	}
	verdict, err := wtd.Compare(
		microdata.PropertySet{privA, utilA},
		microdata.PropertySet{privB, utilB},
	)
	if err != nil {
		return row, err
	}
	row.WTD = word(verdict)
	fmt.Fprintf(w, "WTD (privacy+utility, equal weights): %s\n\n", side(verdict, nameA, nameB))
	return row, nil
}

func side(o microdata.Outcome, a, b string) string {
	switch o {
	case microdata.LeftBetter:
		return a
	case microdata.RightBetter:
		return b
	default:
		return "tie"
	}
}

// word is side with the neutral names result packs record.
func word(o microdata.Outcome) string { return side(o, "left", "right") }
