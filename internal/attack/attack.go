// Package attack simulates the re-identification attacks that motivate the
// paper's §2 discussion: "attacks on the anonymized data sets could be
// targeted towards a particular subset of the individuals represented in
// the data set. In such a situation, a user needs to be concerned about her
// own level of privacy, rather than that maintained collectively."
//
// The adversary holds the original quasi-identifier values of a victim
// (e.g. from a voter list) and matches them against the anonymized table.
// Three standard risk models are provided, each as a per-tuple property
// vector ready for the comparison framework:
//
//   - prosecutor risk: the victim is known to be IN the table; the
//     re-identification probability is 1/|matching class|;
//   - journalist risk: the victim may not be in the table; risk is bounded
//     by the prosecutor risk of the matching class (equal here because the
//     anonymized table is the adversary's only population information);
//   - marketer risk: the expected fraction of records an adversary
//     re-identifies when linking the WHOLE table — a scalar, the mean of
//     the prosecutor vector.
//
// Matching is semantic, not syntactic: a victim's ground values are
// compared against generalized cells with Value.Covers (plus taxonomy
// coverage for Set cells), so local recodings (Mondrian regions) and
// global recodings are attacked identically.
//
// Resolution is region-indexed: the anonymized rows are grouped into
// distinct quasi-identifier regions (equivalence classes) and matched
// per-attribute through hash, interval-stabbing and taxonomy lookups over
// region bitsets, so a victim costs O(regions) instead of O(rows·|QI|).
// Victim tuples are memoized by signature, and the risk vectors fan out
// across GOMAXPROCS workers (cancellable via context). The journalist model
// is inverted: the population is resolved to matched-region sets once,
// groups matching a single region are summed into a per-region tally, and
// groups matching several regions are merged by region set and indexed
// from each region, so a distinct victim region set is charged the tallies
// of its regions plus the multi-region sets it hits, each counted once.
// The Naive* functions keep the direct row-scanning reference
// implementations; the cross-validation tests pin both paths to identical
// vectors.
package attack

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/telemetry"
	"microdata/internal/telemetry/progress"
)

// Adversary matches ground quasi-identifier values against an anonymized
// table. The zero value is not usable; construct with NewAdversary. An
// Adversary is safe for concurrent use.
type Adversary struct {
	anon *dataset.Table
	qi   []int
	taxs map[string]*hierarchy.Taxonomy

	indexOnce sync.Once
	index     *regionIndex
	indexErr  error
	ins       *instruments
	// memo caches victim signature -> *regionMatch across all risk models.
	memo sync.Map

	// prosMu guards the cached prosecutor vector, keyed by the identity of
	// the original table it was computed for. SafetyVector, MarketerRisk
	// and TargetedRisk all reuse it.
	prosMu   sync.Mutex
	prosOrig *dataset.Table
	prosVec  core.PropertyVector
}

// NewAdversary builds an adversary against the anonymized table. The
// taxonomies resolve Set-generalized categorical cells; attributes
// generalized only by intervals, prefixes or suppression need no entry.
func NewAdversary(anon *dataset.Table, taxonomies map[string]*hierarchy.Taxonomy) (*Adversary, error) {
	if anon == nil || anon.Len() == 0 {
		return nil, fmt.Errorf("attack: empty anonymized table")
	}
	qi := anon.Schema.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("attack: no quasi-identifiers to link on")
	}
	return &Adversary{anon: anon, qi: qi, taxs: taxonomies}, nil
}

// covers reports whether the generalized cell g is consistent with the
// victim's ground value v for the given attribute. It is the reference
// predicate the region index replicates.
func (a *Adversary) covers(g, v dataset.Value, attr dataset.Attribute) bool {
	if g.Kind() == dataset.Set {
		tax := a.taxs[attr.Name]
		if tax == nil || v.Kind() != dataset.Str {
			return false
		}
		return tax.CoversValue(g.Text(), v.Text())
	}
	// Mondrian numeric hulls attain their low endpoint; accept boundary
	// matches that Covers' half-open convention would reject.
	if g.Kind() == dataset.Interval && v.Kind() == dataset.Num {
		lo, hi := g.Bounds()
		return v.Float() >= lo && v.Float() <= hi
	}
	return g.Covers(v) || g.Equal(v)
}

// ensureIndex builds the region index exactly once.
func (a *Adversary) ensureIndex(ctx context.Context) (*regionIndex, error) {
	a.indexOnce.Do(func() {
		_, span := telemetry.Start(ctx, "attack.index.build",
			telemetry.Int("rows", a.anon.Len()),
			telemetry.Int("qi", len(a.qi)))
		defer span.End()
		a.ins = newInstruments()
		t0 := time.Now()
		a.index, a.indexErr = buildRegionIndex(a.anon, a.qi, a.taxs)
		a.ins.indexBuildNS.Add(time.Since(t0).Nanoseconds())
		if a.indexErr == nil {
			a.ins.reg.Gauge(MetricIndexRegions).Set(float64(a.index.n))
			span.SetAttr(telemetry.Int("regions", a.index.n))
		}
	})
	return a.index, a.indexErr
}

// regionMatch is the memoized resolution of one victim tuple: the matched
// region set, its cardinality, and the total anonymized rows it spans.
type regionMatch struct {
	regs    bitset
	regions int
	rows    int
}

// matchRegions resolves a victim tuple to its matched-region set through
// the index, memoizing by signature.
func (a *Adversary) matchRegions(ctx context.Context, victim []dataset.Value) (*regionMatch, error) {
	if len(victim) != len(a.qi) {
		return nil, fmt.Errorf("attack: victim has %d quasi-identifier values, schema has %d", len(victim), len(a.qi))
	}
	ix, err := a.ensureIndex(ctx)
	if err != nil {
		return nil, err
	}
	sig := eqclass.KeySignature(victim)
	if m, ok := a.memo.Load(sig); ok {
		a.ins.cacheHits.Inc()
		return m.(*regionMatch), nil
	}
	a.ins.cacheMisses.Inc()
	regs := newBitset(ix.n)
	regs.setAll(ix.n)
	scratch := newBitset(ix.n)
	for vi := range ix.attrs {
		scratch.zero()
		a.matchAttrInto(&ix.attrs[vi], victim[vi], scratch)
		regs.and(scratch)
		if regs.empty() {
			break
		}
	}
	m := &regionMatch{regs: regs}
	regs.forEach(func(r int) {
		m.regions++
		m.rows += ix.sizes[r]
	})
	a.ins.regionsProbed.Add(int64(m.regions))
	a.ins.candidatesPruned.Add(int64(ix.n - m.regions))
	if prev, loaded := a.memo.LoadOrStore(sig, m); loaded {
		return prev.(*regionMatch), nil
	}
	return m, nil
}

// MatchSet returns the row indices of the anonymized table consistent with
// the victim's ground quasi-identifier values (aligned with the schema's
// QI order). Rows are ascending; no match returns nil.
func (a *Adversary) MatchSet(victim []dataset.Value) ([]int, error) {
	m, err := a.matchRegions(context.Background(), victim)
	if err != nil {
		return nil, err
	}
	if m.rows == 0 {
		return nil, nil
	}
	out := make([]int, 0, m.rows)
	m.regs.forEach(func(r int) {
		out = append(out, a.index.part.Classes[r]...)
	})
	sort.Ints(out)
	return out, nil
}

// NaiveMatchSet is the reference row-scanning matcher MatchSet is
// cross-validated against.
func (a *Adversary) NaiveMatchSet(victim []dataset.Value) ([]int, error) {
	if len(victim) != len(a.qi) {
		return nil, fmt.Errorf("attack: victim has %d quasi-identifier values, schema has %d", len(victim), len(a.qi))
	}
	var matches []int
rows:
	for i := 0; i < a.anon.Len(); i++ {
		for vi, j := range a.qi {
			if !a.covers(a.anon.At(i, j), victim[vi], a.anon.Schema.Attrs[j]) {
				continue rows
			}
		}
		matches = append(matches, i)
	}
	return matches, nil
}

// victimOf extracts row i's ground QI values from the original table.
func victimOf(orig *dataset.Table, qi []int, i int) []dataset.Value {
	v := make([]dataset.Value, len(qi))
	for vi, j := range qi {
		v[vi] = orig.At(i, j)
	}
	return v
}

// victimGroups groups the table's rows by ground QI tuple: groupOf[i]
// indexes the distinct victim tuple of row i in victims. Resolving each
// distinct tuple once keeps the parallel fan-out deterministic and feeds
// the signature memo. Grouping runs vectorized over the table's
// dictionary-code columns, so no per-row signature strings are built.
func victimGroups(t *dataset.Table, qi []int) (groupOf []int, victims [][]dataset.Value, err error) {
	if t.Len() == 0 {
		return []int{}, nil, nil
	}
	p, err := eqclass.FromColumns(t, qi)
	if err != nil {
		return nil, nil, err
	}
	victims = make([][]dataset.Value, len(p.Classes))
	for g, rows := range p.Classes {
		victims[g] = victimOf(t, qi, rows[0])
	}
	return p.ClassOf, victims, nil
}

// victimGroupsCounted is victimGroups keeping only multiplicities, for
// population tables whose rows never need individual resolution.
func victimGroupsCounted(t *dataset.Table, qi []int) (victims [][]dataset.Value, counts []int, err error) {
	if t.Len() == 0 {
		return nil, nil, nil
	}
	p, err := eqclass.FromColumns(t, qi)
	if err != nil {
		return nil, nil, err
	}
	victims = make([][]dataset.Value, len(p.Classes))
	counts = make([]int, len(p.Classes))
	for g, rows := range p.Classes {
		victims[g] = victimOf(t, qi, rows[0])
		counts[g] = len(rows)
	}
	return victims, counts, nil
}

// forEachParallel runs f over 0..n-1 across runtime.GOMAXPROCS(0) worker
// goroutines. Cancellation of ctx aborts promptly; the returned error then
// wraps ctx.Err() so errors.Is(err, context.Canceled) holds.
func forEachParallel(ctx context.Context, n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("attack: aborted: %w", err)
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stopped atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("attack: aborted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ProsecutorVectorContext computes the per-tuple prosecutor risk: for
// every individual of the original table, 1 over the number of anonymized
// records consistent with their quasi-identifiers. A sound anonymization
// yields risk <= 1/k everywhere (its own record always matches, and so do
// its k-1 classmates). The vector is cached per original table, so
// SafetyVector, MarketerRisk and TargetedRisk reuse one computation.
func ProsecutorVectorContext(ctx context.Context, orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if orig.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: original has %d rows, anonymized %d", orig.Len(), adv.anon.Len())
	}
	adv.prosMu.Lock()
	if adv.prosOrig == orig && adv.prosVec != nil {
		out := append(core.PropertyVector(nil), adv.prosVec...)
		adv.prosMu.Unlock()
		return out, nil
	}
	adv.prosMu.Unlock()

	ctx, span := telemetry.Start(ctx, "attack.prosecutor",
		telemetry.Int("rows", orig.Len()))
	defer span.End()

	groupOf, victims, err := victimGroups(orig, adv.qi)
	if err != nil {
		return nil, err
	}
	span.SetAttr(telemetry.Int("victim_groups", len(victims)))
	ctx, tr := progress.Start(ctx, "attack.prosecutor", len(victims))
	defer tr.Finish()
	matches := make([]*regionMatch, len(victims))
	err = forEachParallel(ctx, len(victims), func(g int) error {
		m, merr := adv.matchRegions(ctx, victims[g])
		if merr != nil {
			return merr
		}
		matches[g] = m
		tr.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(core.PropertyVector, orig.Len())
	for i := range out {
		m := matches[groupOf[i]]
		if m.rows == 0 {
			return nil, fmt.Errorf("attack: tuple %d matches no anonymized record — the anonymization is inconsistent with its input", i)
		}
		out[i] = 1 / float64(m.rows)
	}

	adv.prosMu.Lock()
	adv.prosOrig = orig
	adv.prosVec = append(core.PropertyVector(nil), out...)
	adv.prosMu.Unlock()
	return out, nil
}

// ProsecutorVector is ProsecutorVectorContext without cancellation.
func ProsecutorVector(orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	return ProsecutorVectorContext(context.Background(), orig, adv)
}

// NaiveProsecutorVector is the reference serial row-scanning prosecutor
// vector the indexed pipeline is cross-validated against.
func NaiveProsecutorVector(orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if orig.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: original has %d rows, anonymized %d", orig.Len(), adv.anon.Len())
	}
	out := make(core.PropertyVector, orig.Len())
	for i := 0; i < orig.Len(); i++ {
		matches, err := adv.NaiveMatchSet(victimOf(orig, adv.qi, i))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("attack: tuple %d matches no anonymized record — the anonymization is inconsistent with its input", i)
		}
		out[i] = 1 / float64(len(matches))
	}
	return out, nil
}

// SafetyVector is the higher-is-better form the comparison framework
// wants: 1 − prosecutor risk.
func SafetyVector(orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	risk, err := ProsecutorVectorContext(context.Background(), orig, adv)
	if err != nil {
		return nil, err
	}
	out := make(core.PropertyVector, len(risk))
	for i, r := range risk {
		out[i] = 1 - r
	}
	return out, nil
}

// MarketerRisk is the expected fraction of records a whole-table linkage
// re-identifies: the mean prosecutor risk.
func MarketerRisk(orig *dataset.Table, adv *Adversary) (float64, error) {
	risk, err := ProsecutorVectorContext(context.Background(), orig, adv)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, r := range risk {
		s += r
	}
	return s / float64(len(risk)), nil
}

// JournalistVectorContext computes the per-tuple journalist risk: the
// adversary knows the victim is in a larger POPULATION the released sample
// was drawn from, not that the victim is in the table. For the individual
// of sample row i, the candidate set is every population record whose
// ground quasi-identifiers fall inside one of the anonymized regions
// matching the victim; the risk is 1 over that count. With population ⊇
// sample the candidate set contains the whole sample match set, so
// journalist risk never exceeds prosecutor risk.
//
// The sweep is inverted: population rows are grouped by ground signature
// and resolved to matched-region sets through the shared memo, and the
// groups are folded into a populationTally, so each DISTINCT victim region
// set S costs its own regions, not a pass over the population:
// candidates(S) = Σ |group| over groups whose region set intersects S.
func JournalistVectorContext(ctx context.Context, sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if sample.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: sample has %d rows, anonymized %d", sample.Len(), adv.anon.Len())
	}
	if population == nil || population.Len() < sample.Len() {
		return nil, fmt.Errorf("attack: population must be at least the sample")
	}
	if population.Schema.Len() != sample.Schema.Len() {
		return nil, fmt.Errorf("attack: population schema mismatch")
	}
	qi := sample.Schema.QuasiIdentifiers()

	ctx, span := telemetry.Start(ctx, "attack.journalist",
		telemetry.Int("sample", sample.Len()),
		telemetry.Int("population", population.Len()))
	defer span.End()

	// The journalist sweep has three shard stages whose sizes become known
	// one at a time; the tracker's total grows with each stage.
	groupOf, victims, err := victimGroups(sample, qi)
	if err != nil {
		return nil, err
	}
	ctx, tr := progress.Start(ctx, "attack.journalist", len(victims))
	defer tr.Finish()
	matches := make([]*regionMatch, len(victims))
	if err := forEachParallel(ctx, len(victims), func(g int) error {
		m, merr := adv.matchRegions(ctx, victims[g])
		if merr != nil {
			return merr
		}
		matches[g] = m
		tr.Add(1)
		return nil
	}); err != nil {
		return nil, err
	}

	popVictims, popCounts, err := victimGroupsCounted(population, qi)
	if err != nil {
		return nil, err
	}
	tr.AddTotal(len(popVictims))
	popRegs := make([]*regionMatch, len(popVictims))
	if err := forEachParallel(ctx, len(popVictims), func(g int) error {
		m, merr := adv.matchRegions(ctx, popVictims[g])
		if merr != nil {
			return merr
		}
		popRegs[g] = m
		tr.Add(1)
		return nil
	}); err != nil {
		return nil, err
	}

	// Candidate counts depend only on the matched-region SET, so dedupe the
	// victims' sets and count each distinct set once.
	setIndex := make(map[string]int)
	var sets []bitset
	setOf := make([]int, len(victims))
	for g, m := range matches {
		k := m.regs.key()
		si, ok := setIndex[k]
		if !ok {
			si = len(sets)
			setIndex[k] = si
			sets = append(sets, m.regs)
		}
		setOf[g] = si
	}
	span.SetAttr(telemetry.Int("victim_groups", len(victims)),
		telemetry.Int("region_sets", len(sets)))
	tally := newPopulationTally(adv.index.n, popRegs, popCounts)
	tr.AddTotal(len(sets))
	cand := make([]int, len(sets))
	stamps := sync.Pool{New: func() any { return make([]int32, len(tally.multi)) }}
	if err := forEachParallel(ctx, len(sets), func(si int) error {
		stamp := stamps.Get().([]int32)
		cand[si] = tally.candidates(sets[si], int32(si)+1, stamp)
		stamps.Put(stamp) //nolint:staticcheck // slice header, not pointer
		tr.Add(1)
		return nil
	}); err != nil {
		return nil, err
	}

	out := make(core.PropertyVector, sample.Len())
	for i := range out {
		m := matches[groupOf[i]]
		if m.rows == 0 {
			return nil, fmt.Errorf("attack: sample row %d matches no anonymized record", i)
		}
		candidates := cand[setOf[groupOf[i]]]
		if candidates < m.rows {
			// Population does not contain the sample: fall back to the
			// sample match set (prosecutor bound).
			candidates = m.rows
		}
		out[i] = 1 / float64(candidates)
	}
	return out, nil
}

// JournalistVector is JournalistVectorContext without cancellation.
func JournalistVector(sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	return JournalistVectorContext(context.Background(), sample, population, adv)
}

// NaiveJournalistVector is the reference per-victim population-scanning
// journalist vector the inverted pipeline is cross-validated against.
func NaiveJournalistVector(sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if sample.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: sample has %d rows, anonymized %d", sample.Len(), adv.anon.Len())
	}
	if population == nil || population.Len() < sample.Len() {
		return nil, fmt.Errorf("attack: population must be at least the sample")
	}
	if population.Schema.Len() != sample.Schema.Len() {
		return nil, fmt.Errorf("attack: population schema mismatch")
	}
	qi := sample.Schema.QuasiIdentifiers()
	out := make(core.PropertyVector, sample.Len())
	var sb strings.Builder
	for i := range out {
		matches, err := adv.NaiveMatchSet(victimOf(sample, qi, i))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("attack: sample row %d matches no anonymized record", i)
		}
		// Dedupe matched regions by their anonymized signature.
		seen := map[string]bool{}
		var regions []int
		for _, m := range matches {
			sb.Reset()
			eqclass.WriteSignature(&sb, adv.anon, m, qi)
			if !seen[sb.String()] {
				seen[sb.String()] = true
				regions = append(regions, m)
			}
		}
		// Count population candidates covered by any matched region.
		candidates := 0
	pop:
		for p := 0; p < population.Len(); p++ {
			for _, m := range regions {
				all := true
				for _, j := range qi {
					if !adv.covers(adv.anon.At(m, j), population.At(p, j), sample.Schema.Attrs[j]) {
						all = false
						break
					}
				}
				if all {
					candidates++
					continue pop
				}
			}
		}
		if candidates < len(matches) {
			// Population does not contain the sample: fall back to the
			// sample match set (prosecutor bound).
			candidates = len(matches)
		}
		out[i] = 1 / float64(candidates)
	}
	return out, nil
}

// TargetedRiskContext reports the risk distribution over a targeted subset
// of individuals (the paper's §2 scenario): the subset's mean and worst
// prosecutor risk. rows index the original table. The prosecutor vector is
// served from the adversary's cache when already computed.
func TargetedRiskContext(ctx context.Context, orig *dataset.Table, adv *Adversary, rows []int) (mean, worst float64, err error) {
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("attack: empty target subset")
	}
	risk, err := ProsecutorVectorContext(ctx, orig, adv)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range rows {
		if r < 0 || r >= len(risk) {
			return 0, 0, fmt.Errorf("attack: target row %d out of range", r)
		}
		mean += risk[r]
		if risk[r] > worst {
			worst = risk[r]
		}
	}
	return mean / float64(len(rows)), worst, nil
}

// TargetedRisk is TargetedRiskContext without cancellation.
func TargetedRisk(orig *dataset.Table, adv *Adversary, rows []int) (mean, worst float64, err error) {
	return TargetedRiskContext(context.Background(), orig, adv, rows)
}

// populationTally folds the population's matched-region sets into counts a
// victim region set can be charged in O(|S| + multi-region hits):
// population groups matching exactly one region are summed into that
// region's tally, and groups matching several regions are merged by region
// set and inverted into region -> set lists. Groups matching no region
// never count.
type populationTally struct {
	// single[r] is the population matching region r and no other.
	single []int
	// multi[m] is the population whose matched-region set is the m-th
	// distinct set of two or more regions; in[r] lists the sets holding r.
	multi []int
	in    [][]int32
}

func newPopulationTally(regions int, popRegs []*regionMatch, popCounts []int) *populationTally {
	t := &populationTally{single: make([]int, regions), in: make([][]int32, regions)}
	multiIndex := make(map[string]int32)
	for pg, pm := range popRegs {
		switch pm.regions {
		case 0:
		case 1:
			pm.regs.forEach(func(r int) { t.single[r] += popCounts[pg] })
		default:
			k := pm.regs.key()
			mi, ok := multiIndex[k]
			if !ok {
				mi = int32(len(t.multi))
				multiIndex[k] = mi
				t.multi = append(t.multi, 0)
				pm.regs.forEach(func(r int) { t.in[r] = append(t.in[r], mi) })
			}
			t.multi[mi] += popCounts[pg]
		}
	}
	return t
}

// candidates counts the population records matching at least one region of
// s. stamp (len(multi)) marks the multi-region sets already counted with
// id, which must differ from every id the buffer has been used with
// before; its other entries may hold any earlier ids.
func (t *populationTally) candidates(s bitset, id int32, stamp []int32) int {
	c := 0
	s.forEach(func(r int) {
		c += t.single[r]
		for _, mi := range t.in[r] {
			if stamp[mi] != id {
				stamp[mi] = id
				c += t.multi[mi]
			}
		}
	})
	return c
}
