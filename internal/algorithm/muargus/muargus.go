// Package muargus implements a μ-Argus-style greedy anonymizer (paper §6,
// Hundepool & Willenborg): check low-order combinations of quasi-identifiers
// for rare value combinations, generalize greedily while rare combinations
// persist, and finally locally suppress the outlier tuples.
//
// Faithful to the original's documented weakness — which the paper's §6
// survey calls out — μ-Argus only inspects combinations up to a fixed order
// (2 here, as in the original's bivariate checks) and therefore does NOT
// guarantee k-anonymity over the full quasi-identifier set. The Result it
// returns is whatever the heuristic achieved; callers who need a guarantee
// must verify with privacy.IsKAnonymous. This makes μ-Argus a genuinely
// different — and genuinely biased — baseline for the comparison framework.
//
// The combination tables are grouped on the shared evaluation engine's
// precomputed fragment ids, and the local-suppression fixpoint updates
// group occupancies incrementally on a worklist instead of rescanning the
// table each iteration; the generalized table is materialized only once,
// for the final node.
package muargus

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// MuArgus is the greedy combination-checking anonymizer.
type MuArgus struct {
	// MaxCombination bounds the order of quasi-identifier combinations
	// checked; 0 defaults to 2 (the original's bivariate tables).
	MaxCombination int
}

// New returns a μ-Argus instance with bivariate checking.
func New() *MuArgus { return &MuArgus{} }

// Name implements algorithm.Algorithm.
func (*MuArgus) Name() string { return "mu-argus" }

// comboGroup is one cell of one combination's frequency table: the rows
// sharing a value combination, and how many of them are not yet suppressed.
type comboGroup struct {
	rows  []int
	alive int
}

// Anonymize implements algorithm.Algorithm.
func (m *MuArgus) Anonymize(t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	return m.AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext implements algorithm.ContextAlgorithm; the greedy walk
// aborts with the context's error as soon as cancellation is seen.
func (m *MuArgus) AnonymizeContext(ctx context.Context, t *dataset.Table, cfg algorithm.Config) (*algorithm.Result, error) {
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("mu-argus: %w", err)
	}
	if cfg.MinLDiversity > 0 || cfg.MaxTCloseness > 0 || cfg.MinEntropyL > 0 || cfg.RecursiveC > 0 {
		return nil, fmt.Errorf("mu-argus: diversity constraints are not supported — the combination heuristic offers no guarantee even for k (paper §6)")
	}
	ctx, sp := telemetry.Start(ctx, "mu-argus.search", telemetry.Int("k", cfg.K))
	defer sp.End()
	reg := telemetry.NewRunRegistry()
	stepsC := reg.Counter("mu-argus.generalization_steps")
	eng, err := engine.NewContext(ctx, t, cfg)
	if err != nil {
		return nil, fmt.Errorf("mu-argus: %w", err)
	}
	order := m.MaxCombination
	if order <= 0 {
		order = 2
	}
	if order > eng.NumQI() {
		order = eng.NumQI()
	}
	maxLevels := eng.Lattice().MaxLevels()
	combos := combinations(eng.NumQI(), order)
	node := make(lattice.Node, eng.NumQI())
	budget := eng.Budget()
	n := t.Len()
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mu-argus: %w", err)
		}
		// Build each combination's frequency table by grouping rows on the
		// engine's fragment ids at the current levels — no generalized
		// table is materialized.
		frags := make([][]uint32, eng.NumQI())
		for li := range frags {
			if frags[li], err = eng.FragmentIDs(li, node[li]); err != nil {
				return nil, fmt.Errorf("mu-argus: %w", err)
			}
		}
		var groups []*comboGroup
		comboGroups := make([][]*comboGroup, len(combos))
		rowGroups := make([][]*comboGroup, n)
		buf := make([]byte, 4*order)
		for ci, combo := range combos {
			index := make(map[string]*comboGroup)
			for i := 0; i < n; i++ {
				for bi, li := range combo {
					binary.LittleEndian.PutUint32(buf[4*bi:], frags[li][i])
				}
				key := string(buf[:4*len(combo)])
				g := index[key]
				if g == nil {
					g = &comboGroup{}
					index[key] = g
					groups = append(groups, g)
					comboGroups[ci] = append(comboGroups[ci], g)
				}
				g.rows = append(g.rows, i)
				rowGroups[i] = append(rowGroups[i], g)
			}
		}
		// Local suppression runs to a fixpoint: removing an outlier can
		// push a surviving combination below k, so group occupancies are
		// decremented as rows are suppressed and only the groups that just
		// dropped below k are re-examined (a previously rare group has no
		// unsuppressed rows left and cannot contribute again).
		suppressed := make([]bool, n)
		nSuppressed := 0
		var work []*comboGroup
		for _, g := range groups {
			g.alive = len(g.rows)
			if g.alive < cfg.K {
				work = append(work, g)
			}
		}
		for {
			var rare []int
			seen := make(map[int]bool)
			for _, g := range work {
				for _, r := range g.rows {
					if !suppressed[r] && !seen[r] {
						seen[r] = true
						rare = append(rare, r)
					}
				}
			}
			if len(rare) == 0 {
				// Fixpoint reached: materialize the final node once,
				// suppress the outliers, and report.
				_, msp := telemetry.Start(ctx, "algorithm.materialize",
					telemetry.String("algorithm", m.Name()))
				anon, err := hierarchy.GeneralizeTable(t, cfg.Hierarchies, node)
				if err != nil {
					msp.End()
					return nil, fmt.Errorf("mu-argus: %w", err)
				}
				var all []int
				for r := 0; r < n; r++ {
					if suppressed[r] {
						all = append(all, r)
					}
				}
				if anon, err = hierarchy.SuppressRows(anon, all); err != nil {
					msp.End()
					return nil, fmt.Errorf("mu-argus: %w", err)
				}
				p, err := eqclass.FromTable(anon)
				msp.End()
				if err != nil {
					return nil, fmt.Errorf("mu-argus: %w", err)
				}
				reg.Gauge("mu-argus.suppressed").Set(float64(len(all)))
				reg.Gauge("mu-argus.combination_order").Set(float64(order))
				stats := map[string]float64{}
				reg.Snapshot().MergeInto(stats, "mu-argus.")
				eng.Stats().MergeInto(stats)
				telemetry.L().Info("mu-argus: fixpoint reached",
					"steps", stepsC.Value(), "suppressed", len(all), "node", fmt.Sprint(node))
				return &algorithm.Result{
					Algorithm:  m.Name(),
					Table:      anon,
					Partition:  p,
					Levels:     node.Clone(),
					Suppressed: all,
					Stats:      stats,
				}, nil
			}
			if nSuppressed+len(rare) > budget {
				break // generalize instead
			}
			sort.Ints(rare)
			var next []*comboGroup
			queued := make(map[*comboGroup]bool)
			for _, r := range rare {
				suppressed[r] = true
				nSuppressed++
				for _, g := range rowGroups[r] {
					was := g.alive
					g.alive--
					if g.alive < cfg.K && was >= cfg.K && !queued[g] {
						queued[g] = true
						next = append(next, g)
					}
				}
			}
			work = next
		}
		// Generalize the attribute participating in the most rare
		// combinations (greedy, mirroring μ-Argus's interactive advice).
		// Scores count rows of undersized cells in each combination's full
		// frequency table, suppression ignored, exactly as a fresh scan of
		// the generalized table would.
		scores := make([]int, eng.NumQI())
		for ci, combo := range combos {
			rare := 0
			for _, g := range comboGroups[ci] {
				if len(g.rows) < cfg.K {
					rare += len(g.rows)
				}
			}
			for _, li := range combo {
				scores[li] += rare
			}
		}
		best, bestScore := -1, -1
		for li := 0; li < eng.NumQI(); li++ {
			if node[li] >= maxLevels[li] {
				continue
			}
			if scores[li] > bestScore {
				best, bestScore = li, scores[li]
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("mu-argus: rare combinations remain at full generalization (budget %d)", budget)
		}
		node[best]++
		stepsC.Inc()
	}
}

// combinations enumerates all index subsets of {0..n-1} with size 1..order.
func combinations(n, order int) [][]int {
	var out [][]int
	var cur []int
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 && len(cur) <= order {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == order {
			return
		}
		for i := start; i < n; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
