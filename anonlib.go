// Package microdata is a library for microdata disclosure control and for
// the vector-based comparison of anonymization algorithms, reproducing
// Dewri, Ray, Ray & Whitley, "On the Comparison of Microdata Disclosure
// Control Algorithms" (EDBT 2009).
//
// This package is the library's consumer contract, and api.txt pins it
// one declaration a line. It exports three groups:
//
//   - the paper's comparison framework, whole: PropertyVector, dominance
//     relations, unary/binary quality indices (PKAnon, PSAvg, PCov, PSpr,
//     PHv, PRank, ...), ▶-better comparators and the multi-property
//     preference schemes WTD, LEX and GOAL;
//
//   - the disclosure control algorithms rebuilt from the literature:
//     Datafly, Samarati, Incognito, optimal lattice search, OLA, Mondrian
//     (strict and relaxed), μ-Argus, an Iyengar-style genetic algorithm,
//     top-down specialization and bottom-up generalization, all behind one
//     Algorithm interface and registry (NewAlgorithm, AlgorithmNames),
//     plus the paper's §7 extension, multi-objective Pareto exploration;
//
//   - what a caller needs around them: tables, schemas and hierarchies,
//     the synthetic census and the paper's fixtures, the privacy, utility
//     and property measures the examples use, the record-linkage
//     adversary, the E1–E19 experiments and the telemetry collector.
//
// The exported names alias the internal implementation packages, so this
// package is the single import a downstream user needs:
//
//	t, _ := microdata.Generate(microdata.GeneratorConfig{N: 1000, Seed: 1})
//	alg, _ := microdata.NewAlgorithm("mondrian")
//	res, _ := alg.Anonymize(t, microdata.AlgorithmConfig{
//	    K: 5, Hierarchies: microdata.CensusHierarchies(),
//	})
//	vec := microdata.ClassSizeVector(res.Partition)
//
// The commands under cmd/ import the internal packages directly: the
// engine, the perf and result packs, the run report, spans and exit codes
// are theirs, not part of this contract.
package microdata

import (
	"context"
	"fmt"
	"io"
	"sort"

	"microdata/internal/algorithm"
	"microdata/internal/algorithm/bottomup"
	"microdata/internal/algorithm/datafly"
	"microdata/internal/algorithm/genetic"
	"microdata/internal/algorithm/incognito"
	"microdata/internal/algorithm/moga"
	"microdata/internal/algorithm/mondrian"
	"microdata/internal/algorithm/muargus"
	"microdata/internal/algorithm/ola"
	"microdata/internal/algorithm/optimal"
	"microdata/internal/algorithm/samarati"
	"microdata/internal/algorithm/topdown"
	"microdata/internal/attack"
	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/experiment"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/measure"
	"microdata/internal/paperdata"
	"microdata/internal/privacy"
	"microdata/internal/stats"
	"microdata/internal/telemetry"
	"microdata/internal/utility"
)

// Data substrate.
type (
	// Table is a microdata table (schema + sealed dictionary-encoded
	// columns).
	Table = dataset.Table
	// Schema describes the attributes of a table.
	Schema = dataset.Schema
	// Attribute is one column description.
	Attribute = dataset.Attribute
	// Value is one table cell (exact, interval, prefix, set or star).
	Value = dataset.Value
	// Role classifies attributes (quasi-identifier, sensitive, ...).
	Role = dataset.Role
	// AttrKind is an attribute's ground domain (categorical or numeric).
	AttrKind = dataset.AttrKind
	// Columnar builds a Table row by row; Table() seals it.
	Columnar = dataset.Columnar
)

// Attribute roles and kinds.
const (
	Insensitive     = dataset.Insensitive
	QuasiIdentifier = dataset.QuasiIdentifier
	Sensitive       = dataset.Sensitive
	Categorical     = dataset.Categorical
	Numeric         = dataset.Numeric
)

// Schema, value and table constructors.
var (
	MustSchema  = dataset.MustSchema
	NumVal      = dataset.NumVal
	StrVal      = dataset.StrVal
	NewColumnar = dataset.NewColumnar
	// ReadCSV parses a CSV stream whose header matches the schema.
	ReadCSV = dataset.IngestCSVTable
)

// Hierarchies.
type (
	// Hierarchy generalizes one attribute's values over discrete levels.
	Hierarchy = hierarchy.Hierarchy
	// HierarchySet maps attribute names to hierarchies.
	HierarchySet = hierarchy.Set
	// Taxonomy generalizes categorical values through a tree.
	Taxonomy = hierarchy.Taxonomy
	// Intervals generalizes numeric values through anchored ladders.
	Intervals = hierarchy.Intervals
	// IntervalLevel is one rung of an interval ladder.
	IntervalLevel = hierarchy.IntervalLevel
	// PrefixMask generalizes fixed-length codes by masking characters.
	PrefixMask = hierarchy.PrefixMask
)

// Hierarchy constructors.
var (
	MustIntervals    = hierarchy.MustIntervals
	MustPrefixMask   = hierarchy.MustPrefixMask
	NewHierarchySet  = hierarchy.NewSet
	MustHierarchySet = hierarchy.MustSet
	ParseTaxonomy    = hierarchy.ParseTaxonomy
)

// Equivalence classes, lattice nodes and privacy models.
type (
	// Partition groups table rows into equivalence classes.
	Partition = eqclass.Partition
	// LatticeNode is a vector of per-attribute generalization levels.
	LatticeNode = lattice.Node
	// GuardingNode is a personalized privacy requirement (Xiao–Tao).
	GuardingNode = privacy.GuardingNode
)

// Partitioning and privacy measurements.
var (
	PartitionTable           = eqclass.FromTable
	KAnonymity               = privacy.KAnonymity
	ClassSizeVector          = privacy.ClassSizeVector
	SensitiveCountVector     = privacy.SensitiveCountVector
	PersonalizedBreachVector = privacy.PersonalizedBreachVector
	PersonalizedSatisfied    = privacy.PersonalizedSatisfied
)

// LossConfig carries taxonomy context for loss computation.
type LossConfig = utility.LossConfig

// Utility measurements.
var (
	UtilityVector     = utility.UtilityVector
	GeneralLossMetric = utility.GeneralLossMetric
)

// The comparison framework (the paper's contribution).
type (
	// PropertyVector measures a property per tuple (Definition 1).
	PropertyVector = core.PropertyVector
	// PropertySet is the r vectors of an r-property anonymization.
	PropertySet = core.PropertySet
	// Relation classifies a dominance comparison (Table 4).
	Relation = core.Relation
	// Outcome is a ▶-better comparison verdict.
	Outcome = core.Outcome
	// UnaryIndex is a 1-ary quality index (Definition 3).
	UnaryIndex = core.UnaryIndex
	// BinaryIndex is a 2-ary quality index (Definition 3).
	BinaryIndex = core.BinaryIndex
	// Comparator is a ▶-better comparator over property vectors.
	Comparator = core.Comparator
	// SetComparator compares property-vector sets (WTD, LEX, GOAL).
	SetComparator = core.SetComparator
	// RankComparator is the §5.1 ▶rank comparator.
	RankComparator = core.RankBetter
	// IndexPanel is a vector of unary indices (Theorem 1).
	IndexPanel = core.Panel
	// Norm selects the distance used by the rank comparator.
	Norm = core.Norm
	// TournamentResult ranks a field of anonymizations by pairwise wins.
	TournamentResult = core.TournamentResult
)

// Rank-distance norms.
const (
	L2   = core.L2
	L1   = core.L1
	LInf = core.LInf
)

// Dominance relations and outcomes.
const (
	Incomparable   = core.Incomparable
	EqualVectors   = core.EqualVectors
	LeftDominates  = core.LeftDominates
	RightDominates = core.RightDominates
	Tie            = core.Tie
	LeftBetter     = core.LeftBetter
	RightBetter    = core.RightBetter
)

// Comparison machinery.
var (
	WeaklyDominates             = core.WeaklyDominates
	StronglyDominates           = core.StronglyDominates
	CompareVectors              = core.Compare
	WeaklyDominatesSet          = core.WeaklyDominatesSet
	StronglyDominatesSet        = core.StronglyDominatesSet
	EvalUnary                   = core.EvalUnary
	EvalBinary                  = core.EvalBinary
	PKAnon                      = core.PKAnon
	PSAvg                       = core.PSAvg
	PLDiv                       = core.PLDiv
	PMax                        = core.PMax
	PSum                        = core.PSum
	PMedian                     = core.PMedian
	PRank                       = core.PRank
	PRankWith                   = core.PRankWith
	PBinary                     = core.PBinary
	PCov                        = core.PCov
	PSpr                        = core.PSpr
	PHv                         = core.PHv
	PHvLog                      = core.PHvLog
	CovBetter                   = core.CovBetter
	SprBetter                   = core.SprBetter
	HvBetter                    = core.HvBetter
	HvLogBetter                 = core.HvLogBetter
	MinBetter                   = core.MinBetter
	NewWTD                      = core.NewWTD
	NewLEX                      = core.NewLEX
	NewGOAL                     = core.NewGOAL
	NormalizeTogether           = core.NormalizeTogether
	StandardPanel               = core.StandardPanel
	ProjectionPanel             = core.ProjectionPanel
	FindDominanceCounterexample = core.FindDominanceCounterexample
	EntropyL                    = core.EntropyL
	Tournament                  = core.Tournament
	TournamentSets              = core.TournamentSets
)

// Algorithms.
type (
	// Algorithm is a disclosure control algorithm.
	Algorithm = algorithm.Algorithm
	// ContextAlgorithm is implemented by algorithms whose searches honor
	// a cancellation context.
	ContextAlgorithm = algorithm.ContextAlgorithm
	// AlgorithmConfig parameterizes an anonymization run.
	AlgorithmConfig = algorithm.Config
	// AlgorithmResult is an anonymization outcome.
	AlgorithmResult = algorithm.Result
	// Metric selects the utility objective of a searching algorithm.
	Metric = algorithm.Metric
)

// Utility metrics for search.
const (
	MetricLM   = algorithm.MetricLM
	MetricDM   = algorithm.MetricDM
	MetricPrec = algorithm.MetricPrec
)

// AnonymizeContext runs an algorithm honoring ctx when it implements
// ContextAlgorithm.
var AnonymizeContext = algorithm.AnonymizeContext

// roster holds one constructor per registered algorithm; each algorithm's
// registry name is its Name().
var roster = []func() Algorithm{
	func() Algorithm { return bottomup.New() },
	func() Algorithm { return datafly.New() },
	func() Algorithm { return samarati.New() },
	func() Algorithm { return incognito.New() },
	func() Algorithm { return ola.New() },
	func() Algorithm { return optimal.New() },
	func() Algorithm { return mondrian.New() },
	func() Algorithm { return mondrian.NewRelaxed() },
	func() Algorithm { return muargus.New() },
	func() Algorithm { return genetic.New() },
	func() Algorithm { return genetic.NewConstrained() },
	func() Algorithm { return topdown.New() },
}

// NewAlgorithm builds a registered disclosure control algorithm by name.
// See AlgorithmNames for the roster.
func NewAlgorithm(name string) (Algorithm, error) {
	for _, build := range roster {
		if a := build(); a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("microdata: unknown algorithm %q (known: %v)", name, AlgorithmNames())
}

// AlgorithmNames lists the registered algorithms, sorted.
func AlgorithmNames() []string {
	names := make([]string, len(roster))
	for i, build := range roster {
		names[i] = build().Name()
	}
	sort.Strings(names)
	return names
}

// Multi-objective exploration (the paper's §7 proposed extension).
type (
	// ParetoObjectives is a (privacy rank, loss) objective pair.
	ParetoObjectives = moga.Objectives
	// ParetoPoint is a lattice node with its objectives.
	ParetoPoint = moga.Point
	// ParetoFront is a set of mutually non-dominated points.
	ParetoFront = moga.Front
	// NSGA2 searches large lattices for the Pareto front.
	NSGA2 = moga.NSGA2
)

// Pareto-front search and scoring.
var (
	ExhaustiveParetoFront = moga.ExhaustiveFront
	ParetoCoverage        = moga.Coverage
)

// GeneratorConfig parameterizes the synthetic census draw.
type GeneratorConfig = generator.Config

// Census data and hierarchies.
var (
	Generate          = generator.Generate
	CensusHierarchies = generator.Hierarchies
	CensusTaxonomies  = generator.Taxonomies
	CensusGuards      = generator.Guards
	DiseaseTaxonomy   = generator.DiseaseTaxonomy
)

// Paper fixtures (Tables 1–3 and the quoted vectors).
var (
	PaperT1        = paperdata.T1
	PaperT3a       = paperdata.T3a
	PaperT3b       = paperdata.T3b
	PaperT4        = paperdata.T4
	PaperSensitive = paperdata.SensitiveColumn
)

// Adversary links ground quasi-identifiers against an anonymized table
// through a region index: record-linkage re-identification risk (§2).
type Adversary = attack.Adversary

// Attack constructor and risk measures.
var (
	NewAdversary     = attack.NewAdversary
	ProsecutorVector = attack.ProsecutorVector
	JournalistVector = attack.JournalistVector
	MarketerRisk     = attack.MarketerRisk
)

// Measurement layer: r-property anonymizations (Definition 2) as named
// per-tuple property extractors.
type (
	// MeasureContext pairs an original table with one anonymization.
	MeasureContext = measure.Context
	// MeasuredProperty is one named per-tuple property extractor.
	MeasuredProperty = measure.Property
)

// Property extractors and the Measure bundler.
var (
	NewMeasureContext = measure.NewContext
	Measure           = measure.Measure
	PropClassSize     = measure.ClassSize
	PropRetainedInfo  = measure.RetainedInformation
)

// BiasSummary is the descriptive-statistics bundle for a vector.
type BiasSummary = stats.Summary

// Summary statistics for property vectors.
var (
	Summarize = stats.Summarize
	Gini      = stats.Gini
)

// ExperimentOptions tunes the scaled experiments.
type ExperimentOptions = experiment.Options

// RunExperiment executes one of the paper-reproduction experiments
// (E1–E19) and writes its report.
func RunExperiment(w io.Writer, id string, opts ExperimentOptions) error {
	return experiment.RunByID(context.Background(), w, id, opts, nil)
}

// Observability: installing a collector turns on span recording and
// process-wide metric aggregation; telemetry is off by default. See README
// "Observability".
type (
	// TelemetryCollector bundles a span tracer and a process-wide
	// metrics registry.
	TelemetryCollector = telemetry.Collector
	// TelemetryOption configures a collector.
	TelemetryOption = telemetry.CollectorOption
)

// Telemetry collector constructor and installer.
var (
	NewTelemetryCollector = telemetry.NewCollector
	SetTelemetryCollector = telemetry.SetCollector
)
