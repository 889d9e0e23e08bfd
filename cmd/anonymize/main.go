// Command anonymize applies a disclosure control algorithm to a census-
// schema CSV (or to a freshly generated synthetic census) and writes the
// anonymized table as CSV.
//
// Usage:
//
//	anonymize -gen 1000 -alg mondrian -k 5 -out anon.csv
//	anonymize -in census.csv -alg samarati -k 10 -sup 0.05 -out anon.csv
//
// The input CSV must use the synthetic census schema (Age, ZipCode,
// Education, MaritalStatus, Disease); generate a template with -gen.
//
// Exit codes follow the stable contract shared with anonbench and compare
// (see README "Exit codes"): 0 ok, 1 failure, 6 invalid input (bad flags
// such as -k outside [1,N] or -sup outside [0,1], an unreadable or
// malformed input CSV, a cell outside the census hierarchies' ground
// domain, an unknown algorithm).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"microdata"
	"microdata/internal/telemetry/perf"
)

func main() {
	var (
		in    = flag.String("in", "", "input CSV (census schema); empty with -gen to synthesize")
		gen   = flag.Int("gen", 0, "generate a synthetic census of this size instead of reading -in")
		out   = flag.String("out", "", "output CSV (default stdout)")
		alg   = flag.String("alg", "mondrian", "algorithm: "+fmt.Sprint(microdata.AlgorithmNames()))
		stats = flag.Bool("stats", false, "print a JSON summary of the release to stderr")
		k     = flag.Int("k", 5, "k-anonymity requirement")
		sup   = flag.Float64("sup", 0.05, "maximum suppression fraction")
		seed  = flag.Int64("seed", 1, "seed for -gen and stochastic algorithms")

		verbose   = flag.Bool("v", false, "enable debug-level structured logging on stderr")
		logFormat = flag.String("log-format", "", "structured log format: text or json (implies logging even without -v)")
	)
	flag.CommandLine.Init("anonymize", flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		return
	} else if err != nil {
		os.Exit(perf.ExitInvalid)
	}
	if *verbose || *logFormat != "" {
		h, err := microdata.NewLogHandler(os.Stderr, *logFormat, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anonymize:", err)
			os.Exit(perf.ExitInvalid)
		}
		microdata.SetLogHandler(h)
	}
	if err := run(*in, *gen, *out, *alg, *k, *sup, *seed, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "anonymize:", err)
		os.Exit(perf.ExitCode(err))
	}
}

func run(in string, gen int, out, algName string, k int, sup float64, seed int64, stats bool) error {
	var tab *microdata.Table
	var err error
	switch {
	case gen > 0 && in != "":
		return perf.Invalidf("-gen and -in are mutually exclusive")
	case gen > 0:
		tab, err = microdata.Generate(microdata.GeneratorConfig{N: gen, Seed: seed})
		if err != nil {
			return err
		}
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return perf.Exit(perf.ExitInvalid, err)
		}
		defer f.Close()
		tab, err = microdata.ReadCSV(f, microdata.CensusSchema())
		if err != nil {
			return perf.Exit(perf.ExitInvalid, fmt.Errorf("%s: %w", in, err))
		}
	default:
		return perf.Invalidf("need -in FILE or -gen N")
	}

	a, err := microdata.NewAlgorithm(algName)
	if err != nil {
		return perf.Exit(perf.ExitInvalid, err)
	}
	cfg := microdata.AlgorithmConfig{
		K:              k,
		Hierarchies:    microdata.CensusHierarchies(),
		MaxSuppression: sup,
		Taxonomies:     microdata.CensusTaxonomies(),
		Seed:           seed,
	}
	if err := cfg.Validate(tab); err != nil {
		return perf.Exit(perf.ExitInvalid, err)
	}
	res, err := microdata.AnonymizeContext(context.Background(), a, tab, cfg)
	if err != nil {
		return err
	}

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := microdata.WriteCSV(w, res.Table); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: k=%d classes=%d suppressed=%d\n",
		res.Algorithm, microdata.KAnonymity(res.Partition),
		res.Partition.NumClasses(), len(res.Suppressed))
	if stats {
		ctx, err := microdata.NewMeasureContext(tab, res.Table, microdata.CensusTaxonomies())
		if err != nil {
			return err
		}
		summary, err := microdata.SummarizeRelease(ctx)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			return err
		}
	}
	return nil
}
