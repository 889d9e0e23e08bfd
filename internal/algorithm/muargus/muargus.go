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
// Each combination's frequency table is an eqclass.GroupCodes group-by
// over the shared evaluation engine's precomputed fragment ids. The cells
// of all combinations share one id space: every row lists its cell per
// combination in one flat vector, and every cell lists its rows in a
// counting-sort layout. The local-suppression fixpoint updates cell
// occupancies incrementally on a worklist instead of rescanning the
// table each iteration; the generalized table is materialized only once,
// for the final node.
package muargus

import (
	"context"
	"fmt"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/engine"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
	"microdata/internal/telemetry"
)

// maxOrder bounds the order of the quasi-identifier combinations checked:
// the original's bivariate tables.
const maxOrder = 2

// MuArgus is the greedy combination-checking anonymizer.
type MuArgus struct{}

// New returns a μ-Argus instance with bivariate checking.
func New() *MuArgus { return &MuArgus{} }

// Name implements algorithm.Algorithm.
func (*MuArgus) Name() string { return "mu-argus" }

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
	order := min(maxOrder, eng.NumQI())
	maxLevels := eng.Lattice().MaxLevels()
	combos := combinations(eng.NumQI(), order)
	node := make(lattice.Node, eng.NumQI())
	budget := eng.Budget()
	n := t.Len()
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mu-argus: %w", err)
		}
		tab, err := buildTables(eng, node, combos, n)
		if err != nil {
			return nil, fmt.Errorf("mu-argus: %w", err)
		}
		// Local suppression runs to a fixpoint: removing an outlier can
		// push a surviving cell below k, so cell occupancies are
		// decremented as rows are suppressed and only the cells that just
		// dropped below k are re-examined (a previously rare cell has no
		// unsuppressed rows left and cannot contribute again). Occupancies
		// only fall, so a cell drops to k-1 at most once and is queued at
		// most once. A row is marked when it joins a round's rare set:
		// the round then either suppresses every rare row or abandons the
		// node, so the marks are exactly the suppressed rows.
		nc := len(combos)
		cells := len(tab.start) - 1
		alive := make([]int, cells)
		var work []int
		for g := range alive {
			alive[g] = tab.size(g)
			if alive[g] < cfg.K {
				work = append(work, g)
			}
		}
		suppressed := make([]bool, n)
		nSuppressed := 0
		var rare []int
		for {
			rare = rare[:0]
			for _, g := range work {
				for _, r := range tab.rows[tab.start[g]:tab.start[g+1]] {
					if !suppressed[r] {
						suppressed[r] = true
						rare = append(rare, int(r))
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
					"steps", stepsC.Value(), "suppressed", len(all), "node", node.String())
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
			nSuppressed += len(rare)
			work = work[:0]
			for _, r := range rare {
				for _, g := range tab.cellOf[r*nc : (r+1)*nc] {
					alive[g]--
					if alive[g] == cfg.K-1 {
						work = append(work, int(g))
					}
				}
			}
		}
		// Generalize the attribute participating in the most rare
		// combinations (greedy, mirroring μ-Argus's interactive advice).
		// Scores count rows of undersized cells in each combination's full
		// frequency table, suppression ignored, exactly as a fresh scan of
		// the generalized table would.
		scores := make([]int, eng.NumQI())
		for ci, combo := range combos {
			rare := 0
			for g := tab.first[ci]; g < tab.first[ci+1]; g++ {
				if sz := tab.size(g); sz < cfg.K {
					rare += sz
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

// tables holds the frequency tables of every checked combination at one
// node. Cells of all combinations share one id space: combination ci owns
// ids first[ci] .. first[ci+1]-1.
type tables struct {
	// cellOf[i*len(combos)+ci] is row i's cell in combination ci.
	cellOf []uint32
	// rows[start[g]:start[g+1]] are cell g's rows, ascending.
	start []int
	rows  []uint32
	first []int
}

// size returns the number of rows in cell g.
func (tb *tables) size(g int) int { return tb.start[g+1] - tb.start[g] }

// buildTables groups the rows of every combination at the node on the
// engine's fragment ids, so no generalized table is materialized, and
// lays each cell's rows out by counting sort.
func buildTables(eng *engine.Engine, node lattice.Node, combos [][]int, n int) (*tables, error) {
	frags := make([][]uint32, eng.NumQI())
	cards := make([]int, eng.NumQI())
	for li := range frags {
		var err error
		if frags[li], err = eng.FragmentIDs(li, node[li]); err != nil {
			return nil, err
		}
		if cards[li], err = eng.DistinctAtLevel(li, node[li]); err != nil {
			return nil, err
		}
	}
	nc := len(combos)
	tb := &tables{cellOf: make([]uint32, n*nc), first: make([]int, nc+1)}
	var cols [][]uint32
	var cs []int
	for ci, combo := range combos {
		cols, cs = cols[:0], cs[:0]
		for _, li := range combo {
			cols = append(cols, frags[li])
			cs = append(cs, cards[li])
		}
		ids, groups, err := eqclass.GroupCodes(cols, cs)
		if err != nil {
			return nil, err
		}
		base := uint32(tb.first[ci])
		for i, g := range ids {
			tb.cellOf[i*nc+ci] = base + g
		}
		tb.first[ci+1] = tb.first[ci] + groups
	}
	tb.start = make([]int, tb.first[nc]+1)
	for _, g := range tb.cellOf {
		tb.start[g+1]++
	}
	for g := 1; g < len(tb.start); g++ {
		tb.start[g] += tb.start[g-1]
	}
	next := append([]int(nil), tb.start[:len(tb.start)-1]...)
	tb.rows = make([]uint32, len(tb.cellOf))
	for i := 0; i < n; i++ {
		for _, g := range tb.cellOf[i*nc : (i+1)*nc] {
			tb.rows[next[g]] = uint32(i)
			next[g]++
		}
	}
	return tb, nil
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
