// Package resultpack seals experiment *results* into verifiable artifacts,
// the correctness counterpart of package perf's performance packs. A result
// pack (schema "microdata/result-pack" v1) captures what the paper's
// comparison tables actually claim — per-algorithm measure values, chosen
// lattice nodes, equivalence-class shape statistics, attack-risk summaries
// (prosecutor/journalist/marketer) and E-series report digests — in the
// pack envelope of package perf (canonical JSON under a SHA-256
// self-manifest; perf.Seal, perf.WriteFile, perf.Read) with the same
// environment/dataset fingerprint perf packs carry (dataset content hash,
// go version, vcs.revision, seed/N/K). This package holds only the
// payload types, their canonical order and the schema constants.
//
// Because every captured quantity is recomputable from the recorded
// configuration, a sealed pack supports *replay verification*: `compare
// -verify pack.json` re-runs the recorded config against the fingerprinted
// dataset draw and diffs the fresh capture against the recorded one
// field-by-field — exact for codes, nodes and counts, ULP-tolerant for
// float measures (see Diff). Exit codes follow the stable contract shared
// with anonbench and benchdiff: 0 ok, 2 verification/tamper, 5 divergence,
// 6 invalid input.
//
// Floats need one extra rule the perf schema never hit: property vectors
// and measures legitimately produce NaN (precision of local recodings),
// ±Inf (degenerate entropy ratios) and negative zero on degenerate
// classes, none of which encoding/json can represent. The Float type pins
// their spelling — "NaN", "+Inf", "-Inf" as JSON strings, every finite
// value (including -0) as its shortest round-trip decimal — so canonical
// bytes, and therefore manifest digests, are deterministic.
package resultpack

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"

	"microdata/internal/telemetry/perf"
)

// Schema identifies the result-pack document type; Version is bumped on
// any backwards-incompatible shape change.
const (
	Schema  = "microdata/result-pack"
	Version = 1
)

// Source values: how the pack's inputs were obtained, which decides how
// `compare -verify` replays it.
const (
	// SourceCensus: results computed over a generator census draw; replay
	// regenerates the draw from Env.Seed/Env.N and checks Env.DatasetHash.
	SourceCensus = "census"
	// SourcePaper: results computed over the paper's built-in tables;
	// replay recomputes from the embedded data.
	SourcePaper = "paper"
	// SourceFiles: results computed over user-supplied CSV files; replay
	// re-reads the recorded paths and checks the per-file fingerprints.
	SourceFiles = "files"
)

// Float is the float64 with a pinned JSON spelling (NaN, ±Inf, -0) that
// every float a result pack records uses.
type Float = perf.Float

// Pack is one result-pack document. Sections are independent: a pack from
// `anonbench -result-out` carries Algorithms/Attack/Tables over a census
// draw; a pack from `compare -result-out` carries Comparisons over the
// paper tables or fingerprinted files. Empty sections were not captured.
type Pack struct {
	// Schema is always "microdata/result-pack"; Version gates readers.
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Source is one of SourceCensus, SourcePaper, SourceFiles.
	Source string `json:"source"`
	// CreatedUnixMS timestamps pack creation (not covered by replay diffs).
	CreatedUnixMS int64 `json:"created_unix_ms"`
	// Env fingerprints the producing environment and dataset draw
	// (Env.Seed/N/K and Env.DatasetHash drive census replay).
	Env perf.Env `json:"env"`
	// Ks is the k sweep behind the Algorithms section.
	Ks []int `json:"ks,omitempty"`
	// Experiments lists the E-series IDs whose report digests Tables holds.
	Experiments []string `json:"experiments,omitempty"`
	// Algorithms holds one entry per (k, algorithm) pair, sorted.
	Algorithms []AlgorithmResult `json:"algorithms,omitempty"`
	// Attack holds the per-algorithm record-linkage risk summaries.
	Attack []AttackRisk `json:"attack,omitempty"`
	// AttackPopulation describes the journalist adversary's population
	// draw (the sample plus a second draw at Seed), when Attack is set.
	AttackPopulation *PopulationSpec `json:"attack_population,omitempty"`
	// Tables holds the E-series report digests.
	Tables []TableDigest `json:"tables,omitempty"`
	// Comparisons holds pairwise comparison verdicts (cmd/compare).
	Comparisons []ComparisonResult `json:"comparisons,omitempty"`
	// Files fingerprints the input files of a SourceFiles pack.
	Files []FileFingerprint `json:"files,omitempty"`
	// Manifest seals the document; nil only while under construction.
	Manifest *perf.Manifest `json:"manifest,omitempty"`
}

// AlgorithmResult records everything the comparison tables claim about one
// algorithm at one k: the chosen lattice node, the scalar measure values,
// and the shape of the equivalence-class size distribution.
type AlgorithmResult struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	// Failed carries the error string when the algorithm could not satisfy
	// the configuration (a deterministic outcome worth pinning too).
	Failed string `json:"failed,omitempty"`
	// Node is the chosen lattice node ("[0 1 2]") for global recodings;
	// empty for local recodings (no lattice).
	Node string `json:"node,omitempty"`
	// KActual, Classes and Suppressed are exact integer claims.
	KActual    int `json:"k_actual,omitempty"`
	Classes    int `json:"classes,omitempty"`
	Suppressed int `json:"suppressed,omitempty"`
	// Measures maps measure name (lm, dm, cavg, prec, distinct_l,
	// entropy_l, t_close) to its value; replay compares ULP-tolerantly.
	Measures map[string]Float `json:"measures,omitempty"`
	// ClassShape summarizes the equivalence-class size vector.
	ClassShape *ShapeStats `json:"class_shape,omitempty"`
}

// ShapeStats is the five-number-plus-Gini summary of a property vector.
type ShapeStats struct {
	Min    Float `json:"min"`
	Q1     Float `json:"q1"`
	Median Float `json:"median"`
	Q3     Float `json:"q3"`
	Max    Float `json:"max"`
	Gini   Float `json:"gini"`
}

// RiskSummary condenses a per-individual risk vector.
type RiskSummary struct {
	Mean   Float `json:"mean"`
	Median Float `json:"median"`
	Max    Float `json:"max"`
}

// AttackRisk records the record-linkage risk summaries for one algorithm's
// release at one k under the three paper adversary models.
type AttackRisk struct {
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	// Failed carries the error string when the algorithm's release could
	// not be produced.
	Failed     string       `json:"failed,omitempty"`
	Prosecutor *RiskSummary `json:"prosecutor,omitempty"`
	Journalist *RiskSummary `json:"journalist,omitempty"`
	Marketer   Float        `json:"marketer,omitempty"`
}

// PopulationSpec describes the journalist population draw so replay can
// reconstruct it exactly.
type PopulationSpec struct {
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
	Hash string `json:"hash,omitempty"`
}

// TableDigest pins one experiment's full text report.
type TableDigest struct {
	ID     string `json:"id"`
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// ComparisonResult records one pairwise comparison's verdicts: the
// dominance relation, the per-comparator outcomes and the WTD verdict,
// each as the stable strings cmd/compare prints.
type ComparisonResult struct {
	Left   string `json:"left"`
	Right  string `json:"right"`
	KLeft  int    `json:"k_left"`
	KRight int    `json:"k_right"`
	// Dominance is the privacy-vector dominance relation string.
	Dominance string `json:"dominance"`
	// Privacy maps comparator name (min, cov, spr, rank, hv-log) to the
	// winning side: "left", "right" or "tie".
	Privacy map[string]string `json:"privacy"`
	// UtilityCov is the coverage verdict over the utility vectors.
	UtilityCov string `json:"utility_cov"`
	// WTD is the multi-property weighted-tournament verdict.
	WTD string `json:"wtd"`
}

// FileFingerprint pins one input file of a SourceFiles pack.
type FileFingerprint struct {
	// Role names the slot: "orig", "a" or "b".
	Role   string `json:"role"`
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
}

// TableRecorder accumulates per-experiment report digests as the runner
// emits them — the pack sink the experiment runners write into. The zero
// value is ready; a nil recorder ignores writes, so runner call sites need
// no guards.
type TableRecorder struct {
	tables []TableDigest
}

// Add records one experiment's report digest.
func (r *TableRecorder) Add(id string, sum [sha256.Size]byte, n int) {
	if r == nil {
		return
	}
	r.tables = append(r.tables, TableDigest{ID: id, SHA256: hex.EncodeToString(sum[:]), Bytes: n})
}

// Tables returns the recorded digests sorted by experiment ID.
func (r *TableRecorder) Tables() []TableDigest {
	if r == nil {
		return nil
	}
	out := append([]TableDigest(nil), r.tables...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Kind, SortSections and ManifestField make a Pack an envelope Document;
// every section sorts into its canonical order.
func (*Pack) Kind() (string, int)              { return Schema, Version }
func (p *Pack) ManifestField() **perf.Manifest { return &p.Manifest }
func (p *Pack) SortSections() {
	sort.Slice(p.Algorithms, func(i, j int) bool {
		a, b := p.Algorithms[i], p.Algorithms[j]
		if a.K != b.K {
			return a.K < b.K
		}
		return a.Algorithm < b.Algorithm
	})
	sort.Slice(p.Attack, func(i, j int) bool {
		a, b := p.Attack[i], p.Attack[j]
		if a.K != b.K {
			return a.K < b.K
		}
		return a.Algorithm < b.Algorithm
	})
	sort.Slice(p.Tables, func(i, j int) bool { return p.Tables[i].ID < p.Tables[j].ID })
	sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Role < p.Files[j].Role })
	sort.Strings(p.Experiments)
}

// ReadFile reads and verifies a result pack from disk.
func ReadFile(path string) (*Pack, error) { return perf.Load[Pack](path) }
