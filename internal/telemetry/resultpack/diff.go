package resultpack

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// DiffOptions tunes the replay comparison.
type DiffOptions struct {
	// ULPs is the float-equality tolerance in units-in-the-last-place
	// (default 4). Integer claims (nodes, counts, digests, verdicts) are
	// always exact; the tolerance only widens Measure/ShapeStats/Risk
	// float comparisons, absorbing summation-order jitter without letting
	// any humanly-visible change (a retouched fourth decimal) through.
	ULPs uint64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.ULPs == 0 {
		o.ULPs = 4
	}
	return o
}

// Divergence is one field where the replayed capture disagrees with the
// recorded pack, addressed by a JSONPath-style path.
type Divergence struct {
	Path     string `json:"path"`
	Recorded string `json:"recorded"`
	Replayed string `json:"replayed"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: recorded %s, replayed %s", d.Path, d.Recorded, d.Replayed)
}

// Diff compares a replayed capture against the recorded pack field by
// field and returns every divergence. Manifest, timestamps and environment
// are out of scope (the manifest is checked by Read; environment changes
// are surfaced separately by the caller) — Diff judges only the claims.
func Diff(recorded, replayed *Pack, opts DiffOptions) []Divergence {
	opts = opts.withDefaults()
	d := &differ{opts: opts}
	rec, rep := clonedSorted(recorded), clonedSorted(replayed)

	d.exact("source", rec.Source, rep.Source)
	d.ints("ks", rec.Ks, rep.Ks)
	d.exactList("experiments", rec.Experiments, rep.Experiments)
	d.algorithms(rec.Algorithms, rep.Algorithms)
	d.attack(rec.Attack, rep.Attack)
	if rec.AttackPopulation != nil || rep.AttackPopulation != nil {
		d.population(rec.AttackPopulation, rep.AttackPopulation)
	}
	d.tables(rec.Tables, rep.Tables)
	d.comparisons(rec.Comparisons, rep.Comparisons)
	d.files(rec.Files, rep.Files)
	return d.out
}

// clonedSorted returns a shallow copy with sections in canonical order, so
// Diff never mutates its arguments and unsealed replays compare correctly.
func clonedSorted(p *Pack) *Pack {
	c := *p
	c.Ks = append([]int(nil), p.Ks...)
	c.Experiments = append([]string(nil), p.Experiments...)
	c.Algorithms = append([]AlgorithmResult(nil), p.Algorithms...)
	c.Attack = append([]AttackRisk(nil), p.Attack...)
	c.Tables = append([]TableDigest(nil), p.Tables...)
	c.Files = append([]FileFingerprint(nil), p.Files...)
	c.SortSections()
	return &c
}

type differ struct {
	opts DiffOptions
	out  []Divergence
}

func (d *differ) add(path, recorded, replayed string) {
	d.out = append(d.out, Divergence{Path: path, Recorded: recorded, Replayed: replayed})
}

func (d *differ) exact(path, rec, rep string) {
	if rec != rep {
		d.add(path, strconv.Quote(rec), strconv.Quote(rep))
	}
}

func (d *differ) exactInt(path string, rec, rep int) {
	if rec != rep {
		d.add(path, strconv.Itoa(rec), strconv.Itoa(rep))
	}
}

func (d *differ) ints(path string, rec, rep []int) {
	if len(rec) != len(rep) {
		d.add(path, fmt.Sprint(rec), fmt.Sprint(rep))
		return
	}
	for i := range rec {
		if rec[i] != rep[i] {
			d.add(path, fmt.Sprint(rec), fmt.Sprint(rep))
			return
		}
	}
}

func (d *differ) exactList(path string, rec, rep []string) {
	if len(rec) != len(rep) {
		d.add(path, fmt.Sprint(rec), fmt.Sprint(rep))
		return
	}
	for i := range rec {
		if rec[i] != rep[i] {
			d.add(path, fmt.Sprint(rec), fmt.Sprint(rep))
			return
		}
	}
}

// float compares ULP-tolerantly: NaN agrees with NaN, infinities must
// match sign, ±0 are equal, and finite values may differ by at most
// opts.ULPs representable doubles.
func (d *differ) float(path string, rec, rep Float) {
	a, b := float64(rec), float64(rep)
	if math.IsNaN(a) && math.IsNaN(b) {
		return
	}
	if a == b { // covers equal finites, same-sign Inf and +0 == -0
		return
	}
	if !math.IsNaN(a) && !math.IsNaN(b) && !math.IsInf(a, 0) && !math.IsInf(b, 0) &&
		ulpDistance(a, b) <= d.opts.ULPs {
		return
	}
	d.add(path, formatFloat(a), formatFloat(b))
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ulpDistance returns how many representable float64 values lie between a
// and b, using the standard monotone mapping of IEEE-754 bit patterns onto
// a signed lexicographic scale (which places -0 and +0 at distance zero).
func ulpDistance(a, b float64) uint64 {
	la, lb := lexBits(a), lexBits(b)
	// Bias onto uint64 so the subtraction cannot overflow.
	ua := uint64(la) + 1<<63
	ub := uint64(lb) + 1<<63
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

func lexBits(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func (d *differ) measures(path string, rec, rep map[string]Float) {
	for _, name := range sortedKeys(rec) {
		rv, ok := rep[name]
		if !ok {
			d.add(path+"."+name, formatFloat(float64(rec[name])), "(absent)")
			continue
		}
		d.float(path+"."+name, rec[name], rv)
	}
	for _, name := range sortedKeys(rep) {
		if _, ok := rec[name]; !ok {
			d.add(path+"."+name, "(absent)", formatFloat(float64(rep[name])))
		}
	}
}

func sortedKeys(m map[string]Float) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

// sortStrings is a tiny insertion sort: measure maps hold single-digit
// key counts, not worth importing sort's interface machinery per call.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (d *differ) shape(path string, rec, rep *ShapeStats) {
	switch {
	case rec == nil && rep == nil:
		return
	case rec == nil || rep == nil:
		d.add(path, presence(rec != nil), presence(rep != nil))
		return
	}
	d.float(path+".min", rec.Min, rep.Min)
	d.float(path+".q1", rec.Q1, rep.Q1)
	d.float(path+".median", rec.Median, rep.Median)
	d.float(path+".q3", rec.Q3, rep.Q3)
	d.float(path+".max", rec.Max, rep.Max)
	d.float(path+".gini", rec.Gini, rep.Gini)
}

func presence(ok bool) string {
	if ok {
		return "(present)"
	}
	return "(absent)"
}

func (d *differ) algorithms(rec, rep []AlgorithmResult) {
	index := map[string]*AlgorithmResult{}
	for i := range rep {
		index[algKey(rep[i].K, rep[i].Algorithm)] = &rep[i]
	}
	seen := map[string]bool{}
	for i := range rec {
		r := &rec[i]
		key := algKey(r.K, r.Algorithm)
		seen[key] = true
		path := "algorithms[" + key + "]"
		p, ok := index[key]
		if !ok {
			d.add(path, "(present)", "(absent)")
			continue
		}
		d.exact(path+".failed", r.Failed, p.Failed)
		d.exact(path+".node", r.Node, p.Node)
		d.exactInt(path+".k_actual", r.KActual, p.KActual)
		d.exactInt(path+".classes", r.Classes, p.Classes)
		d.exactInt(path+".suppressed", r.Suppressed, p.Suppressed)
		d.measures(path+".measures", r.Measures, p.Measures)
		d.shape(path+".class_shape", r.ClassShape, p.ClassShape)
	}
	for i := range rep {
		if key := algKey(rep[i].K, rep[i].Algorithm); !seen[key] {
			d.add("algorithms["+key+"]", "(absent)", "(present)")
		}
	}
}

func algKey(k int, name string) string { return "k=" + strconv.Itoa(k) + "/" + name }

func (d *differ) risk(path string, rec, rep *RiskSummary) {
	switch {
	case rec == nil && rep == nil:
		return
	case rec == nil || rep == nil:
		d.add(path, presence(rec != nil), presence(rep != nil))
		return
	}
	d.float(path+".mean", rec.Mean, rep.Mean)
	d.float(path+".median", rec.Median, rep.Median)
	d.float(path+".max", rec.Max, rep.Max)
}

func (d *differ) attack(rec, rep []AttackRisk) {
	index := map[string]*AttackRisk{}
	for i := range rep {
		index[algKey(rep[i].K, rep[i].Algorithm)] = &rep[i]
	}
	seen := map[string]bool{}
	for i := range rec {
		r := &rec[i]
		key := algKey(r.K, r.Algorithm)
		seen[key] = true
		path := "attack[" + key + "]"
		p, ok := index[key]
		if !ok {
			d.add(path, "(present)", "(absent)")
			continue
		}
		d.exact(path+".failed", r.Failed, p.Failed)
		d.risk(path+".prosecutor", r.Prosecutor, p.Prosecutor)
		d.risk(path+".journalist", r.Journalist, p.Journalist)
		d.float(path+".marketer", r.Marketer, p.Marketer)
	}
	for i := range rep {
		if key := algKey(rep[i].K, rep[i].Algorithm); !seen[key] {
			d.add("attack["+key+"]", "(absent)", "(present)")
		}
	}
}

func (d *differ) population(rec, rep *PopulationSpec) {
	switch {
	case rec == nil || rep == nil:
		d.add("attack_population", presence(rec != nil), presence(rep != nil))
		return
	}
	d.exactInt("attack_population.n", rec.N, rep.N)
	if rec.Seed != rep.Seed {
		d.add("attack_population.seed", strconv.FormatInt(rec.Seed, 10), strconv.FormatInt(rep.Seed, 10))
	}
	d.exact("attack_population.hash", rec.Hash, rep.Hash)
}

func (d *differ) tables(rec, rep []TableDigest) {
	index := map[string]TableDigest{}
	for _, t := range rep {
		index[t.ID] = t
	}
	seen := map[string]bool{}
	for _, t := range rec {
		seen[t.ID] = true
		path := "tables[" + t.ID + "]"
		p, ok := index[t.ID]
		if !ok {
			d.add(path, "(present)", "(absent)")
			continue
		}
		d.exact(path+".sha256", t.SHA256, p.SHA256)
		d.exactInt(path+".bytes", t.Bytes, p.Bytes)
	}
	for _, t := range rep {
		if !seen[t.ID] {
			d.add("tables["+t.ID+"]", "(absent)", "(present)")
		}
	}
}

func (d *differ) comparisons(rec, rep []ComparisonResult) {
	if len(rec) != len(rep) {
		d.add("comparisons", fmt.Sprintf("%d pairs", len(rec)), fmt.Sprintf("%d pairs", len(rep)))
		return
	}
	for i := range rec {
		r, p := &rec[i], &rep[i]
		path := fmt.Sprintf("comparisons[%s vs %s]", r.Left, r.Right)
		d.exact(path+".left", r.Left, p.Left)
		d.exact(path+".right", r.Right, p.Right)
		d.exactInt(path+".k_left", r.KLeft, p.KLeft)
		d.exactInt(path+".k_right", r.KRight, p.KRight)
		d.exact(path+".dominance", r.Dominance, p.Dominance)
		for _, name := range sortedStringKeys(r.Privacy) {
			d.exact(path+".privacy."+name, r.Privacy[name], p.Privacy[name])
		}
		for _, name := range sortedStringKeys(p.Privacy) {
			if _, ok := r.Privacy[name]; !ok {
				d.add(path+".privacy."+name, "(absent)", strconv.Quote(p.Privacy[name]))
			}
		}
		d.exact(path+".utility_cov", r.UtilityCov, p.UtilityCov)
		d.exact(path+".wtd", r.WTD, p.WTD)
	}
}

func sortedStringKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func (d *differ) files(rec, rep []FileFingerprint) {
	index := map[string]FileFingerprint{}
	for _, f := range rep {
		index[f.Role] = f
	}
	for _, f := range rec {
		path := "files[" + f.Role + "]"
		p, ok := index[f.Role]
		if !ok {
			d.add(path, "(present)", "(absent)")
			continue
		}
		d.exact(path+".path", f.Path, p.Path)
		d.exact(path+".sha256", f.SHA256, p.SHA256)
	}
}

// WriteDivergences renders one line per divergence — the path-level
// diagnostic `compare -verify` prints before exiting with ExitDrift.
func WriteDivergences(w io.Writer, divs []Divergence) {
	for _, d := range divs {
		fmt.Fprintf(w, "divergence: %s\n", d.String())
	}
}
