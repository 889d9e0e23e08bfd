package attack

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
)

// regionClasses caches, per adversary, the partition of its anonymized
// rows by QI signature, whose classes are its index's regions in the same
// first-appearance order.
var regionClasses sync.Map // *Adversary → *eqclass.Partition

// MatchSet returns the row indices of the anonymized table consistent with
// the victim's ground quasi-identifier values (aligned with the schema's
// QI order), resolving each value through the production region index
// and its per-attribute match. Rows are ascending; no match returns nil.
// The tests pin it against NaiveMatchSet.
func (a *Adversary) MatchSet(victim []dataset.Value) ([]int, error) {
	if len(victim) != len(a.qi) {
		return nil, fmt.Errorf("attack: victim has %d quasi-identifier values, schema has %d", len(victim), len(a.qi))
	}
	ix, err := a.ensureIndex(context.Background())
	if err != nil {
		return nil, err
	}
	part, ok := regionClasses.Load(a)
	if !ok {
		p, err := eqclass.FromColumns(a.anon, a.qi)
		if err != nil {
			return nil, err
		}
		part, _ = regionClasses.LoadOrStore(a, p)
	}
	classes := part.(*eqclass.Partition).Classes
	regs := newBitset(ix.n)
	regs.setAll(ix.n)
	scratch := newBitset(ix.n)
	for vi := range ix.attrs {
		scratch.zero()
		a.matchAttrInto(&ix.attrs[vi], victim[vi], scratch)
		regs.and(scratch)
	}
	a.ins.cacheMisses.Add(int64(len(victim)))
	var out []int
	regions := 0
	regs.forEach(func(r int) {
		out = append(out, classes[r]...)
		regions++
	})
	a.ins.regionsProbed.Add(int64(regions))
	a.ins.candidatesPruned.Add(int64(ix.n - regions))
	sort.Ints(out)
	return out, nil
}

// and, setAll and forEach are the bitset operations only MatchSet uses.
func (b bitset) and(c bitset) {
	for i := range b {
		b[i] &= c[i]
	}
}

// setAll sets the first n bits.
func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n&63 != 0 {
		b[len(b)-1] = 1<<(uint(n)&63) - 1
	}
}

// forEach calls f with every set bit in ascending order.
func (b bitset) forEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
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

// NaiveProsecutorVector is the reference serial row-scanning prosecutor
// vector the indexed pipeline is cross-validated against.
func NaiveProsecutorVector(orig *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	if orig.Len() != adv.anon.Len() {
		return nil, fmt.Errorf("attack: original has %d rows, anonymized %d", orig.Len(), adv.anon.Len())
	}
	qi, err := adv.checkQI(orig, "original")
	if err != nil {
		return nil, err
	}
	out := make(core.PropertyVector, orig.Len())
	for i := 0; i < orig.Len(); i++ {
		matches, err := adv.NaiveMatchSet(victimOf(orig, qi, i))
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

// NaiveJournalistVector is the reference population-scanning journalist
// vector the inverted pipeline is cross-validated against. The set of
// matched-region signatures fixes both the candidate count and the match
// count, so the population is scanned once per distinct set, not once per
// sample row.
func NaiveJournalistVector(sample, population *dataset.Table, adv *Adversary) (core.PropertyVector, error) {
	sqi, pqi, err := adv.checkJournalist(sample, population)
	if err != nil {
		return nil, err
	}
	out := make(core.PropertyVector, sample.Len())
	risk := map[string]float64{}
	var sb, key strings.Builder
	for i := range out {
		matches, err := adv.NaiveMatchSet(victimOf(sample, sqi, i))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("attack: sample row %d matches no anonymized record", i)
		}
		// Dedupe matched regions by their anonymized signature; the
		// signatures joined in match order key the set.
		seen := map[string]bool{}
		var regions []int
		key.Reset()
		for _, m := range matches {
			sb.Reset()
			for _, j := range adv.qi {
				sb.WriteString(adv.anon.At(m, j).Key())
				sb.WriteByte('\x1f')
			}
			if !seen[sb.String()] {
				seen[sb.String()] = true
				regions = append(regions, m)
				key.WriteString(sb.String())
			}
		}
		if r, ok := risk[key.String()]; ok {
			out[i] = r
			continue
		}
		// Count population candidates covered by any matched region.
		candidates := 0
	pop:
		for p := 0; p < population.Len(); p++ {
			for _, m := range regions {
				all := true
				for vi, j := range adv.qi {
					if !adv.covers(adv.anon.At(m, j), population.At(p, pqi[vi]), adv.anon.Schema.Attrs[j]) {
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
		risk[key.String()] = out[i]
	}
	return out, nil
}

// victimOf extracts row i's ground QI values from the original table.
func victimOf(orig *dataset.Table, qi []int, i int) []dataset.Value {
	v := make([]dataset.Value, len(qi))
	for vi, j := range qi {
		v[vi] = orig.At(i, j)
	}
	return v
}
