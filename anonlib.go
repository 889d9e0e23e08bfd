// Package microdata is a library for microdata disclosure control and for
// the vector-based comparison of anonymization algorithms, reproducing
// Dewri, Ray, Ray & Whitley, "On the Comparison of Microdata Disclosure
// Control Algorithms" (EDBT 2009).
//
// The library has three layers:
//
//   - substrates: typed microdata tables (Table, Schema, Value),
//     generalization hierarchies (Hierarchy, Taxonomy, Intervals,
//     PrefixMask), the full-domain generalization lattice, equivalence
//     classes, privacy models (k-anonymity, ℓ-diversity, t-closeness,
//     p-sensitive, personalized) and utility metrics (LM, DM, C_avg, Prec);
//
//   - the paper's comparison framework: PropertyVector, dominance
//     relations, unary/binary quality indices (PKAnon, PSAvg, PCov, PSpr,
//     PHv, PRank, ...), ▶-better comparators and the multi-property
//     preference schemes WTD, LEX and GOAL;
//
//   - disclosure control algorithms rebuilt from the literature: Datafly,
//     Samarati, Incognito (direct and two-phase subset sweeps), optimal
//     lattice search, Mondrian (strict and relaxed), μ-Argus, an
//     Iyengar-style genetic algorithm, top-down specialization and
//     bottom-up generalization — all satisfying one Algorithm interface,
//     all optionally enforcing ℓ-diversity / t-closeness alongside k —
//     plus the paper's §7 extension: multi-objective Pareto exploration
//     with privacy as a vector-derived objective, a record-linkage attack
//     simulator, and a COUNT-query workload evaluator.
//
// The exported names below alias the internal implementation packages, so
// this package is the single import needed by downstream users:
//
//	t, _ := microdata.Generate(microdata.GeneratorConfig{N: 1000, Seed: 1})
//	alg, _ := microdata.NewAlgorithm("mondrian")
//	res, _ := alg.Anonymize(t, microdata.AlgorithmConfig{
//	    K: 5, Hierarchies: microdata.CensusHierarchies(),
//	})
//	vec := microdata.ClassSizeVector(res.Partition)
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
	"microdata/internal/engine"
	"microdata/internal/eqclass"
	"microdata/internal/experiment"
	"microdata/internal/generator"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/measure"
	"microdata/internal/paperdata"
	"microdata/internal/perfsuite"
	"microdata/internal/privacy"
	"microdata/internal/stats"
	"microdata/internal/telemetry"
	"microdata/internal/telemetry/ledger"
	"microdata/internal/telemetry/perf"
	"microdata/internal/telemetry/report"
	"microdata/internal/telemetry/resultpack"
	"microdata/internal/utility"
	"microdata/internal/workload"
)

// Data substrate.
type (
	// Table is a microdata table (schema + rows).
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
	// Column is one dictionary-encoded column vector (codes + dictionary).
	Column = dataset.Column
	// Float64Column is the typed, non-dictionary numeric column: the flat
	// path for high-cardinality numeric attributes.
	Float64Column = dataset.Float64Column
	// Columnar builds a Table row by row; Table() seals it.
	Columnar = dataset.Columnar
	// CSVIngester parses CSV fed in arbitrary chunks straight into columns.
	CSVIngester = dataset.CSVIngester
)

// Attribute roles and kinds.
const (
	Insensitive     = dataset.Insensitive
	QuasiIdentifier = dataset.QuasiIdentifier
	Sensitive       = dataset.Sensitive
	Categorical     = dataset.Categorical
	Numeric         = dataset.Numeric
)

// Value constructors and table helpers re-exported from the dataset layer.
var (
	NewSchema   = dataset.NewSchema
	MustSchema  = dataset.MustSchema
	NumVal      = dataset.NumVal
	StrVal      = dataset.StrVal
	IntervalVal = dataset.IntervalVal
	PrefixVal   = dataset.PrefixVal
	SetVal      = dataset.SetVal
	StarVal     = dataset.StarVal
	ReadCSV     = dataset.ReadCSV
	WriteCSV    = dataset.WriteCSV

	NewColumnar     = dataset.NewColumnar
	ReadCSVColumnar = dataset.ReadCSVColumnar
	NewCSVIngester  = dataset.NewCSVIngester
	IngestCSV       = dataset.IngestCSV
	IngestCSVTable  = dataset.IngestCSVTable
	Float64ColumnOf = dataset.Float64ColumnOf
)

// Hierarchies.
type (
	// Hierarchy generalizes one attribute's values over discrete levels.
	Hierarchy = hierarchy.Hierarchy
	// HierarchySet maps attribute names to hierarchies.
	HierarchySet = hierarchy.Set
	// Taxonomy generalizes categorical values through a tree.
	Taxonomy = hierarchy.Taxonomy
	// TaxonomyNode is a node of a taxonomy literal.
	TaxonomyNode = hierarchy.Node
	// Intervals generalizes numeric values through anchored ladders.
	Intervals = hierarchy.Intervals
	// IntervalLevel is one rung of an interval ladder.
	IntervalLevel = hierarchy.IntervalLevel
	// PrefixMask generalizes fixed-length codes by masking characters.
	PrefixMask = hierarchy.PrefixMask
)

// Hierarchy constructors.
var (
	NewTaxonomy      = hierarchy.NewTaxonomy
	MustTaxonomy     = hierarchy.MustTaxonomy
	TaxNode          = hierarchy.N
	NewIntervals     = hierarchy.NewIntervals
	MustIntervals    = hierarchy.MustIntervals
	NewPrefixMask    = hierarchy.NewPrefixMask
	MustPrefixMask   = hierarchy.MustPrefixMask
	NewSuppression   = hierarchy.NewSuppression
	NewHierarchySet  = hierarchy.NewSet
	MustHierarchySet = hierarchy.MustSet
	GeneralizeTable  = hierarchy.GeneralizeTable
	ParseTaxonomy    = hierarchy.ParseTaxonomy
	WriteTaxonomy    = hierarchy.WriteTaxonomy
)

// Lattice.
type (
	// LatticeNode is a vector of per-attribute generalization levels.
	LatticeNode = lattice.Node
	// Lattice is the full-domain generalization lattice.
	Lattice = lattice.Lattice
)

// NewLattice builds a lattice from per-attribute maximum levels.
var NewLattice = lattice.New

// Equivalence classes and privacy models.
type (
	// Partition groups table rows into equivalence classes.
	Partition = eqclass.Partition
	// GuardingNode is a personalized privacy requirement (Xiao–Tao).
	GuardingNode = privacy.GuardingNode
)

// Partitioning and privacy measurements.
var (
	PartitionTable           = eqclass.FromTable
	PartitionCodes           = eqclass.FromCodes
	KAnonymity               = privacy.KAnonymity
	IsKAnonymous             = privacy.IsKAnonymous
	ClassSizeVector          = privacy.ClassSizeVector
	DistinctLDiversity       = privacy.DistinctLDiversity
	IsDistinctLDiverse       = privacy.IsDistinctLDiverse
	EntropyLDiversity        = privacy.EntropyLDiversity
	RecursiveCLDiversity     = privacy.RecursiveCLDiversity
	SensitiveCountVector     = privacy.SensitiveCountVector
	DistinctCountVector      = privacy.DistinctCountVector
	TCloseness               = privacy.TCloseness
	IsTClose                 = privacy.IsTClose
	TClosenessVector         = privacy.TClosenessVector
	IsPSensitiveKAnonymous   = privacy.IsPSensitiveKAnonymous
	BreachProbabilityVector  = privacy.BreachProbabilityVector
	ReidentificationVector   = privacy.ReidentificationVector
	PersonalizedBreachVector = privacy.PersonalizedBreachVector
	PersonalizedSatisfied    = privacy.PersonalizedSatisfied
)

// Utility metrics.
type (
	// LossConfig carries taxonomy context for loss computation.
	LossConfig = utility.LossConfig
)

// Utility measurements.
var (
	LossVector             = utility.LossVector
	UtilityVector          = utility.UtilityVector
	GeneralLossMetric      = utility.GeneralLossMetric
	DiscernibilityMetric   = utility.DiscernibilityMetric
	DiscernibilityVector   = utility.DiscernibilityVector
	AverageClassSizeMetric = utility.AverageClassSizeMetric
	Precision              = utility.Precision
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

// ResultCost scores a finished result under a config's metric.
var ResultCost = algorithm.ResultCost

// Shared lattice-node evaluation engine. Global-recoding algorithms
// evaluate lattice nodes through one Engine per search: generalization
// maps are precomputed once, evaluations are memoized in a bounded LRU
// cache, batches run on a worker pool, and everything honors a
// context.Context.
type (
	// Engine evaluates lattice nodes for one (table, config) pair.
	Engine = engine.Engine
	// EngineOption customizes an engine (cache size).
	EngineOption = engine.Option
	// EngineEvaluation is one memoized node evaluation (frequency set,
	// violating row count, constraint verdict, cost).
	EngineEvaluation = engine.Evaluation
	// EngineStats is a snapshot of the engine's evaluation counters.
	EngineStats = engine.Stats
	// EngineCanceled reports a cancelled search; it wraps the context's
	// error and carries the partial EngineStats.
	EngineCanceled = engine.Canceled
	// ContextAlgorithm is implemented by algorithms whose searches honor
	// a cancellation context.
	ContextAlgorithm = algorithm.ContextAlgorithm
)

// Engine constructors and the context-aware anonymization entry point.
var (
	NewEngine           = engine.New
	WithEngineCacheSize = engine.WithCacheSize
	AnonymizeContext    = algorithm.AnonymizeContext
)

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

// NewAlgorithm builds a registered disclosure control algorithm by name.
// See AlgorithmNames for the roster.
func NewAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "bottomup":
		return bottomup.New(), nil
	case "datafly":
		return datafly.New(), nil
	case "samarati":
		return samarati.New(), nil
	case "incognito":
		return incognito.New(), nil
	case "ola":
		return ola.New(), nil
	case "optimal":
		return optimal.New(), nil
	case "mondrian":
		return mondrian.New(), nil
	case "mondrian-relaxed":
		return mondrian.NewRelaxed(), nil
	case "mu-argus":
		return muargus.New(), nil
	case "genetic":
		return genetic.New(), nil
	case "genetic-constrained":
		return genetic.NewConstrained(), nil
	case "topdown":
		return topdown.New(), nil
	default:
		return nil, fmt.Errorf("microdata: unknown algorithm %q (known: %v)", name, AlgorithmNames())
	}
}

// AlgorithmNames lists the registered algorithms.
func AlgorithmNames() []string {
	names := []string{
		"bottomup", "datafly", "samarati", "incognito", "optimal", "mondrian",
		"mondrian-relaxed", "mu-argus", "ola", "genetic", "genetic-constrained",
		"topdown",
	}
	sort.Strings(names)
	return names
}

// Synthetic census generator.
type (
	// GeneratorConfig parameterizes the synthetic census draw.
	GeneratorConfig = generator.Config
)

// Census data and hierarchies.
var (
	Generate          = generator.Generate
	CensusSchema      = generator.Schema
	CensusHierarchies = generator.Hierarchies
	CensusTaxonomies  = generator.Taxonomies
	CensusGuards      = generator.Guards
	DiseaseTaxonomy   = generator.DiseaseTaxonomy
)

// Paper fixtures (Tables 1–3 and the quoted vectors).
var (
	PaperT1          = paperdata.T1
	PaperT3a         = paperdata.T3a
	PaperT3b         = paperdata.T3b
	PaperT4          = paperdata.T4
	PaperSchema      = paperdata.Schema
	PaperHierarchies = paperdata.Hierarchies
	PaperSensitive   = paperdata.SensitiveColumn
)

// Attack simulation: record-linkage re-identification risk (§2).
type (
	// Adversary links ground quasi-identifiers against an anonymized table
	// through a region index, resolving each attacked table once per
	// dictionary entry and caching the prosecutor vector.
	Adversary = attack.Adversary
	// AttackStats snapshots the adversary's indexing and cache counters.
	AttackStats = attack.Stats
)

// Attack constructors and risk measures. The Context variants accept a
// context.Context for cancellation of the parallel fan-out; the Naive
// variants are the serial row-scanning references the indexed pipeline is
// cross-validated against.
var (
	NewAdversary            = attack.NewAdversary
	ProsecutorVector        = attack.ProsecutorVector
	ProsecutorVectorContext = attack.ProsecutorVectorContext
	JournalistVector        = attack.JournalistVector
	JournalistVectorContext = attack.JournalistVectorContext
	AttackSafety            = attack.SafetyVector
	MarketerRisk            = attack.MarketerRisk
	TargetedRisk            = attack.TargetedRisk
	TargetedRiskContext     = attack.TargetedRiskContext
	NaiveProsecutorVector   = attack.NaiveProsecutorVector
	NaiveJournalistVector   = attack.NaiveJournalistVector
)

// Query-workload utility evaluation (the LeFevre §6 view).
type (
	// WorkloadQuery is a conjunctive COUNT query.
	WorkloadQuery = workload.Query
	// WorkloadPredicate restricts one quasi-identifier.
	WorkloadPredicate = workload.Predicate
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// WorkloadReport summarizes query-answering accuracy.
	WorkloadReport = workload.Report
	// WorkloadEstimator answers queries under the uniformity assumption.
	WorkloadEstimator = workload.Estimator
	// PreparedWorkload is a workload bound to its original table, ready to
	// evaluate any number of releases.
	PreparedWorkload = workload.Prepared
)

// Workload generation and evaluation.
var (
	GenerateWorkload     = workload.Generate
	TrueCount            = workload.TrueCount
	NewWorkloadEstimator = workload.NewEstimator
	PrepareWorkload      = workload.Prepare
	EvaluateWorkload     = workload.Evaluate
)

// Measurement layer: r-property anonymizations (Definition 2) as a
// catalogue of named per-tuple property extractors.
type (
	// MeasureContext pairs an original table with one anonymization.
	MeasureContext = measure.Context
	// MeasuredProperty is one named per-tuple property extractor.
	MeasuredProperty = measure.Property
	// ReleaseSummary is the JSON-ready scalar digest of an anonymization.
	ReleaseSummary = measure.Summary
)

// Property extractors and the Measure bundler.
var (
	NewMeasureContext    = measure.NewContext
	Measure              = measure.Measure
	SummarizeRelease     = measure.Summarize
	PropClassSize        = measure.ClassSize
	PropSensitiveCount   = measure.SensitiveCount
	PropDistinct         = measure.DistinctSensitive
	PropBreachSafety     = measure.BreachSafety
	PropTClosenessSafety = measure.TClosenessSafety
	PropRetainedInfo     = measure.RetainedInformation
	PropDiscernibility   = measure.Discernibility
)

// Bias statistics.
type (
	// BiasSummary is the descriptive-statistics bundle for a vector.
	BiasSummary = stats.Summary
)

// Summary statistics for property vectors.
var (
	Summarize = stats.Summarize
	Gini      = stats.Gini
)

// Experiments.
type (
	// ExperimentOptions tunes the scaled experiments.
	ExperimentOptions = experiment.Options
)

// ExperimentInfo describes one registered experiment.
type ExperimentInfo struct {
	ID, Title, Artifact string
}

// Experiments lists the registered experiments in order.
func Experiments(opts ExperimentOptions) []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiment.Registry(opts) {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Artifact: e.Artifact})
	}
	return out
}

// RunExperiment executes one of the paper-reproduction experiments
// (E1–E18) and writes its report.
func RunExperiment(w io.Writer, id string, opts ExperimentOptions) error {
	return experiment.RunByID(w, id, opts)
}

// RunAllExperiments executes every experiment in order.
func RunAllExperiments(w io.Writer, opts ExperimentOptions) error {
	return experiment.RunAll(w, opts)
}

// RunExperimentContext is RunExperiment honoring a context; the experiment
// runs under a telemetry span.
func RunExperimentContext(ctx context.Context, w io.Writer, id string, opts ExperimentOptions) error {
	return experiment.RunByIDContext(ctx, w, id, opts)
}

// RunAllExperimentsContext is RunAllExperiments honoring a context.
func RunAllExperimentsContext(ctx context.Context, w io.Writer, opts ExperimentOptions) error {
	return experiment.RunAllContext(ctx, w, opts)
}

// Observability (internal/telemetry): hierarchical tracing spans, a
// concurrency-safe metrics registry, and structured logging on log/slog.
// Telemetry is disabled by default (a disabled span site costs ~1–2 ns);
// installing a collector with SetTelemetryCollector turns on span
// recording and process-wide metric aggregation. See README "Observability".
type (
	// TelemetryCollector bundles a span tracer and a process-wide
	// metrics registry.
	TelemetryCollector = telemetry.Collector
	// TelemetryOption configures a collector (e.g. WithTelemetryClock).
	TelemetryOption = telemetry.CollectorOption
	// Span is one timed operation in a trace tree.
	Span = telemetry.Span
	// SpanAttr is a key/value span annotation.
	SpanAttr = telemetry.Attr
	// Tracer records finished spans and exports Chrome trace_event JSON.
	Tracer = telemetry.Tracer
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a JSON-ready point-in-time registry view.
	MetricsSnapshot = telemetry.Snapshot
)

// Run report (internal/telemetry/report): the unified versioned JSON
// document the CLIs write with -report. See README "Run report".
type (
	// RunReport is the unified versioned JSON run report (-report).
	RunReport = report.Report
	// RunReportBuilder accumulates a run's identity for a RunReport.
	RunReportBuilder = report.Builder
)

// RunReportSchema and RunReportVersion identify the -report document.
const (
	RunReportSchema  = report.Schema
	RunReportVersion = report.Version
)

// BeginRunReport starts a run report for one CLI invocation.
var BeginRunReport = report.Begin

// Performance-trajectory observability (internal/telemetry/perf,
// internal/perfsuite): canonical benchmark suites run under a harness that
// records wall time, allocations and runtime/metrics health samples, sealed
// into versioned perf packs (canonical JSON with a SHA-256 self-manifest)
// and compared with a median/MAD drift gate. See README "Benchmarking" and
// DESIGN.md "Perf packs".
type (
	// PerfPack is one sealed perf-pack document (schema
	// "microdata/perf-pack" v1).
	PerfPack = perf.Pack
	// PerfBenchmark is one benchmark's recorded metric series in a pack.
	PerfBenchmark = perf.Benchmark
	// PerfSeries is one metric's samples with median/MAD statistics.
	PerfSeries = perf.Series
	// PerfEnv is the environment fingerprint recorded in every pack.
	PerfEnv = perf.Env
	// PerfSuiteSpec is a named set of benchmarks sharing a dataset.
	PerfSuiteSpec = perf.SuiteSpec
	// PerfOptions tunes a harness run (repetitions, warmup, logging).
	PerfOptions = perf.Options
	// PerfCompareOptions tunes the drift comparator's noise envelope.
	PerfCompareOptions = perf.CompareOptions
	// PerfDiff is the full comparison of two packs.
	PerfDiff = perf.Diff
	// PerfSuiteOptions sets the dataset parameters of the canonical suites.
	PerfSuiteOptions = perfsuite.Options
)

// Stable CLI exit codes shared by anonbench, compare and benchdiff: 0 ok,
// 1 failure, 2 verification failure, 5 regression drift, 6 invalid input.
const (
	ExitOK           = perf.ExitOK
	ExitFailure      = perf.ExitFailure
	ExitVerification = perf.ExitVerification
	ExitDrift        = perf.ExitDrift
	ExitInvalid      = perf.ExitInvalid
)

// Perf-pack constructors and helpers.
var (
	RunPerfSuites    = perf.RunSuites
	ReadPerfPack     = perf.ReadFile
	VerifyPerfPack   = perf.VerifyFile
	ComparePerfPacks = perf.Compare
	CanonicalJSON    = perf.Canonicalize
	ExitCode         = perf.ExitCode
	PerfSuiteNames   = perfsuite.Names
	ResolvePerfSuite = perfsuite.Resolve
)

// TableHash returns the SHA-256 content hash of a table (schema + cells),
// independent of its dictionary order — the dataset fingerprint perf packs
// record.
func TableHash(t *Table) (string, error) { return t.Hash() }

// Correctness-provenance observability (internal/telemetry/resultpack,
// internal/experiment): experiment *results* — per-algorithm measure
// values, chosen lattice nodes, class-shape statistics, attack-risk
// summaries and E-series report digests — sealed into versioned result
// packs (canonical JSON with a SHA-256 self-manifest and dataset
// fingerprint) that `compare -verify` replays field-by-field. See README
// "Result packs & replay verification" and DESIGN.md "Result packs".
type (
	// ResultPack is one sealed result-pack document (schema
	// "microdata/result-pack" v1).
	ResultPack = resultpack.Pack
	// ResultFloat is a float64 with pinned canonical-JSON spelling for
	// NaN, ±Inf and negative zero.
	ResultFloat = resultpack.Float
	// ResultAlgorithmRow is one (k, algorithm) entry of a pack.
	ResultAlgorithmRow = resultpack.AlgorithmResult
	// ResultAttackRow is one algorithm's attack-risk summary in a pack.
	ResultAttackRow = resultpack.AttackRisk
	// ResultTableDigest pins one experiment's full text report.
	ResultTableDigest = resultpack.TableDigest
	// ResultComparisonRow records one pairwise comparison's verdicts.
	ResultComparisonRow = resultpack.ComparisonResult
	// ResultTableRecorder is the pack sink the experiment runners write
	// report digests into.
	ResultTableRecorder = resultpack.TableRecorder
	// ResultDiffOptions tunes replay diffing (ULP tolerance for floats).
	ResultDiffOptions = resultpack.DiffOptions
	// ResultDivergence is one field-level recorded/replayed mismatch.
	ResultDivergence = resultpack.Divergence
	// ResultCaptureConfig selects what CaptureResultPack records.
	ResultCaptureConfig = experiment.CaptureConfig
	// ResultFileFingerprint pins one input file of a files-source pack.
	ResultFileFingerprint = resultpack.FileFingerprint
)

// ResultPackSchema and ResultPackVersion identify the result-pack document.
const (
	ResultPackSchema  = resultpack.Schema
	ResultPackVersion = resultpack.Version
)

// Result-pack source values: how a pack's inputs were obtained, which
// decides how `compare -verify` replays it.
const (
	ResultPackSourceCensus = resultpack.SourceCensus
	ResultPackSourcePaper  = resultpack.SourcePaper
	ResultPackSourceFiles  = resultpack.SourceFiles
)

// Result-pack constructors and helpers.
var (
	ReadResultPack         = resultpack.ReadFile
	VerifyResultPack       = resultpack.VerifyFile
	DiffResultPacks        = resultpack.Diff
	WriteResultDivergences = resultpack.WriteDivergences
	CaptureResultPack      = experiment.CaptureResults
	ReplayResultPack       = experiment.ReplayPack
)

// WriteResultPack seals p (if needed) and writes it as canonical JSON to
// path ("-" for stdout).
func WriteResultPack(p *ResultPack, path string) error { return p.WriteFile(path) }

// Trajectory-ledger observability (internal/telemetry/ledger): an
// append-only, content-addressed history of sealed perf and result packs
// with per-benchmark time series, rolling changepoint detection and a
// drift/correctness gate that attributes environment changes instead of
// failing on them. Maintained by cmd/anonstat; see README "Trajectory
// ledger" and DESIGN.md "Trajectory ledger".
type (
	// TrajectoryLedger is an opened ledger directory.
	TrajectoryLedger = ledger.Ledger
	// LedgerEntry is one appended pack's index record.
	LedgerEntry = ledger.Entry
	// LedgerEnvelope is the rolling noise band shared by trend and gate.
	LedgerEnvelope = ledger.Envelope
	// LedgerTrend is the extracted per-benchmark time-series document.
	LedgerTrend = ledger.Trend
	// LedgerTrendOptions tunes trend extraction.
	LedgerTrendOptions = ledger.TrendOptions
	// LedgerGateOptions tunes the rolling drift gate.
	LedgerGateOptions = ledger.GateOptions
	// LedgerGateResult is the gate outcome: findings fail, attributions don't.
	LedgerGateResult = ledger.GateResult
	// LedgerFinding is one gate failure with a path-level diagnostic.
	LedgerFinding = ledger.Finding
	// LedgerAttribution is an environment-change note.
	LedgerAttribution = ledger.Attribution
)

// Trajectory-ledger helpers.
var (
	OpenLedger         = ledger.Open
	ExtractLedgerTrend = ledger.ExtractTrend
	GateLedger         = ledger.Gate
	Sparkline          = ledger.Sparkline
	DiffPerfEnv        = perf.DiffEnv
)

// Telemetry constructors and helpers.
var (
	NewTelemetryCollector = telemetry.NewCollector
	SetTelemetryCollector = telemetry.SetCollector
	ActiveTelemetry       = telemetry.Active
	TelemetryEnabled      = telemetry.Enabled
	WithTelemetryClock    = telemetry.WithClock
	StartSpan             = telemetry.Start
	SpanFromContext       = telemetry.SpanFromContext
	SpanDepth             = telemetry.Depth
	SpanMaxDepth          = telemetry.MaxDepth
	SpanSubtreeDurations  = telemetry.SubtreeDurations
	NewMetricsRegistry    = telemetry.NewRegistry
	NewRunMetricsRegistry = telemetry.NewRunRegistry
	SpanString            = telemetry.String
	SpanInt               = telemetry.Int
	SpanInt64             = telemetry.Int64
	SpanFloat             = telemetry.Float
	SpanBool              = telemetry.Bool
	TelemetryLogger       = telemetry.L
	SetLogHandler         = telemetry.SetLogHandler
	NewLogHandler         = telemetry.NewLogHandler
)
