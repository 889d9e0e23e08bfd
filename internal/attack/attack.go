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
// Resolution is region-indexed and runs on dictionary codes. The
// anonymized rows are grouped into distinct quasi-identifier regions
// (equivalence classes), and each attribute gets hash, interval-stabbing
// and taxonomy lookups over region bitsets. An attacked table (the
// original, a sample or a population) must carry the release's
// quasi-identifiers (same names and kinds, same order) and is resolved
// column by column: every dictionary entry is matched through the index
// once, and entries with identical region sets merge into one match
// class. Rows are grouped by their tuple of match classes, and a group's
// regions are the AND of its classes' bitsets, so the work grows with the
// distinct tuples and the dictionaries, not with the rows. The groups fan
// out across GOMAXPROCS workers (cancellable via context). The journalist
// model is inverted: population groups matching a single region are
// summed into a per-region tally, and groups matching several regions are
// merged by region set and indexed from each region, so a distinct victim
// region set is charged the tallies of its regions plus the multi-region
// sets it hits, each counted once.
// The tests keep the direct row-scanning reference implementations
// (reference_test.go) and pin both paths to identical vectors.
package attack

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
	"microdata/internal/telemetry"
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

	// prosMu guards the cached prosecutor vector, keyed by the identity of
	// the original table it was computed for. MarketerRisk and
	// TargetedRiskContext both reuse it.
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
// MarketerRisk and TargetedRiskContext reuse one computation.
func ProsecutorVectorContext(ctx context.Context, orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if orig.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: original has %d rows, anonymized %d", orig.Len(), adv.anon.Len())
	}
	qi, err := adv.checkQI(orig, "original")
	if err != nil {
		return nil, err
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

	ix, err := adv.ensureIndex(ctx)
	if err != nil {
		return nil, err
	}
	res, err := adv.resolve(ix, orig, qi)
	if err != nil {
		return nil, err
	}
	span.SetAttr(telemetry.Int("victim_groups", res.groups()))
	lists, err := adv.regionLists(ctx, ix, res)
	if err != nil {
		return nil, err
	}
	out := make(core.PropertyVector, orig.Len())
	for i := range out {
		n := ix.rows(lists[res.groupOf[i]])
		if n == 0 {
			return nil, fmt.Errorf("attack: tuple %d matches no anonymized record — the anonymization is inconsistent with its input", i)
		}
		out[i] = 1 / float64(n)
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
// The sweep is inverted: the population is resolved to match-class groups
// first, and each group's matched regions are folded into a
// populationTally. Each distinct region set S of the sample's groups is
// then charged the tallies of its own regions, not a pass over the
// population: candidates(S) = Σ |group| over population groups whose
// region set intersects S.
func JournalistVectorContext(ctx context.Context, sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	sqi, pqi, err := adv.checkJournalist(sample, population)
	if err != nil {
		return nil, err
	}

	ctx, span := telemetry.Start(ctx, "attack.journalist",
		telemetry.Int("sample", sample.Len()),
		telemetry.Int("population", population.Len()))
	defer span.End()

	ix, err := adv.ensureIndex(ctx)
	if err != nil {
		return nil, err
	}
	pop, err := adv.resolve(ix, population, pqi)
	if err != nil {
		return nil, err
	}
	popRegs, err := adv.regionLists(ctx, ix, pop)
	if err != nil {
		return nil, err
	}
	tally := newPopulationTally(ix.n, popRegs, pop.counts)

	smp, err := adv.resolve(ix, sample, sqi)
	if err != nil {
		return nil, err
	}
	smpRegs, err := adv.regionLists(ctx, ix, smp)
	if err != nil {
		return nil, err
	}
	// Candidate counts depend only on the matched-region set, so count
	// each distinct set of the sample once.
	var sets sliceSet[[]int32, int32]
	setOf := make([]int32, smp.groups())
	for g, regs := range smpRegs {
		setOf[g], _ = sets.intern(regs)
	}
	span.SetAttr(telemetry.Int("victim_groups", smp.groups()),
		telemetry.Int("population_groups", pop.groups()),
		telemetry.Int("region_sets", len(sets.items)))
	rows := make([]int, len(sets.items))
	cand := make([]int, len(sets.items))
	stamps := sync.Pool{New: func() any { return make([]int32, len(tally.multi)) }}
	if err := forEachParallel(ctx, len(sets.items), func(si int) error {
		stamp := stamps.Get().([]int32)
		rows[si] = ix.rows(sets.items[si])
		for _, r := range sets.items[si] {
			cand[si] += tally.charge(int(r), int32(si)+1, stamp)
		}
		stamps.Put(stamp) //nolint:staticcheck // slice header, not pointer
		return nil
	}); err != nil {
		return nil, err
	}

	out := make(core.PropertyVector, sample.Len())
	for i := range out {
		si := setOf[smp.groupOf[i]]
		if rows[si] == 0 {
			return nil, fmt.Errorf("attack: sample row %d matches no anonymized record", i)
		}
		candidates := cand[si]
		if candidates < rows[si] {
			// Population does not contain the sample: fall back to the
			// sample match set (prosecutor bound).
			candidates = rows[si]
		}
		out[i] = 1 / float64(candidates)
	}
	return out, nil
}

// checkJournalist validates a journalist attack's inputs and returns the
// QI columns of the sample and of the population.
func (a *Adversary) checkJournalist(sample, population *dataset.Table) (sqi, pqi []int, err error) {
	if sample.Len() != a.anon.Len() {
		return nil, nil, fmt.Errorf("attack: sample has %d rows, anonymized %d", sample.Len(), a.anon.Len())
	}
	if population == nil || population.Len() < sample.Len() {
		return nil, nil, fmt.Errorf("attack: population must be at least the sample")
	}
	if sqi, err = a.checkQI(sample, "sample"); err != nil {
		return nil, nil, err
	}
	if pqi, err = a.checkQI(population, "population"); err != nil {
		return nil, nil, err
	}
	return sqi, pqi, nil
}

// JournalistVector is JournalistVectorContext without cancellation.
func JournalistVector(sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	return JournalistVectorContext(context.Background(), sample, population, adv)
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

// populationTally folds the population's matched regions into counts a
// victim's regions can be charged in O(regions + multi-region hits):
// population groups matching exactly one region are summed into that
// region's tally, and groups matching several regions are merged by
// region set and indexed from every region of the set. Groups matching no
// region never count.
type populationTally struct {
	// single[r] is the population matching region r and no other.
	single []int
	// multi[m] is the population whose matched regions are the m-th
	// distinct set of two or more; in[r] lists the sets holding r.
	multi []int
	in    [][]int32
}

func newPopulationTally(regions int, popRegs [][]int32, popCounts []int) *populationTally {
	t := &populationTally{single: make([]int, regions), in: make([][]int32, regions)}
	var sets sliceSet[[]int32, int32]
	for g, regs := range popRegs {
		switch len(regs) {
		case 0:
		case 1:
			t.single[regs[0]] += popCounts[g]
		default:
			mi, added := sets.intern(regs)
			if added {
				t.multi = append(t.multi, 0)
				for _, r := range regs {
					t.in[r] = append(t.in[r], mi)
				}
			}
			t.multi[mi] += popCounts[g]
		}
	}
	return t
}

// charge returns the population records region r adds to the candidates
// of one victim set, counted under id: its single-region tally plus every
// multi-region set holding r that the victim set has not counted yet.
// stamp (len(multi)) marks the sets counted under id, which must differ from
// every id the buffer has been used with for another set; its other
// entries may hold any earlier ids.
func (t *populationTally) charge(r int, id int32, stamp []int32) int {
	c := t.single[r]
	for _, mi := range t.in[r] {
		if stamp[mi] != id {
			stamp[mi] = id
			c += t.multi[mi]
		}
	}
	return c
}
