package mondrian

import (
	"fmt"
	"sort"

	"microdata/internal/algorithm"
	"microdata/internal/dataset"
	"microdata/internal/privacy"
)

// This file keeps the row-path Mondrian that the dictionary-code
// partitioner replaced: it sorts rows by comparing cell values, measures
// spans with per-region key maps and checks validity by hashing sensitive
// keys. The tests pin the production partitioner and materializer to it.

// referenceRegions partitions t as the row path did and returns the final
// regions in the order it emitted them, each with its rows in the order
// the last cut left them.
func referenceRegions(m *Mondrian, t *dataset.Table, cfg algorithm.Config) ([][]int, error) {
	if err := cfg.Validate(t); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	qi := t.Schema.QuasiIdentifiers()
	spans := make([]float64, len(qi))
	for d, j := range qi {
		spans[d] = refSpan(t, j, allRows(t.Len()))
		if spans[d] == 0 {
			spans[d] = 1
		}
	}
	var sensitive []dataset.Value
	if cfg.HasDiversityConstraints() {
		sensitive = t.Column(t.Schema.SensitiveIndex())
	}
	var global, local []float64
	var supportPos []int
	if cfg.MaxTCloseness > 0 {
		// The nominal support: every distinct key, sorted, with the
		// column's distribution over it.
		tally := map[string]int{}
		var keys []string
		for _, v := range sensitive {
			if tally[v.Key()]++; tally[v.Key()] == 1 {
				keys = append(keys, v.Key())
			}
		}
		sort.Strings(keys)
		at := make(map[string]int, len(keys))
		for i, k := range keys {
			at[k] = i
			global = append(global, float64(tally[k])/float64(len(sensitive)))
		}
		supportPos = make([]int, len(sensitive))
		for r, v := range sensitive {
			supportPos[r] = at[v.Key()]
		}
		local = make([]float64, len(keys))
	}
	valid := func(rows []int) bool {
		if len(rows) < cfg.K {
			return false
		}
		if cfg.MinLDiversity > 0 {
			distinct := map[string]struct{}{}
			for _, r := range rows {
				distinct[sensitive[r].Key()] = struct{}{}
			}
			if len(distinct) < cfg.MinLDiversity {
				return false
			}
		}
		if cfg.MaxTCloseness > 0 {
			clear(local)
			for _, r := range rows {
				local[supportPos[r]]++
			}
			total := float64(len(rows))
			for i := range local {
				local[i] /= total
			}
			if privacy.EMD(local, global, false) > cfg.MaxTCloseness+1e-12 {
				return false
			}
		}
		if cfg.RecursiveC > 0 && cfg.RecursiveL > 0 {
			counts := map[string]int{}
			for _, r := range rows {
				counts[sensitive[r].Key()]++
			}
			freqs := make([]int, 0, len(counts))
			for _, f := range counts {
				freqs = append(freqs, f)
			}
			if !privacy.RecursiveCL(freqs, cfg.RecursiveC, cfg.RecursiveL) {
				return false
			}
		}
		if cfg.MinEntropyL > 0 {
			counts := map[string]int{}
			for _, r := range rows {
				counts[sensitive[r].Key()]++
			}
			freqs := make([]int, 0, len(counts))
			for _, f := range counts {
				freqs = append(freqs, f)
			}
			if privacy.EntropyL(freqs) < cfg.MinEntropyL-1e-12 {
				return false
			}
		}
		return true
	}
	var regions [][]int
	var partition func(rows []int)
	partition = func(rows []int) {
		if len(rows) >= 2*cfg.K {
			for _, d := range refDimensionOrder(t, qi, rows, spans) {
				left, right, ok := refSplit(m.Relaxed, t, qi[d], rows, cfg.K, valid)
				if ok {
					partition(left)
					partition(right)
					return
				}
			}
		}
		regions = append(regions, rows)
	}
	partition(allRows(t.Len()))
	return regions, nil
}

// refSpan measures the width of a region along one attribute: numeric
// range for Numeric columns, distinct-count for categorical ones.
func refSpan(t *dataset.Table, col int, rows []int) float64 {
	if t.Schema.Attrs[col].Kind == dataset.Numeric {
		lo, hi, any := 0.0, 0.0, false
		for _, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Num {
				continue
			}
			x := v.Float()
			if !any {
				lo, hi, any = x, x, true
			} else if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	seen := map[string]struct{}{}
	for _, r := range rows {
		seen[t.At(r, col).Key()] = struct{}{}
	}
	return float64(len(seen) - 1)
}

// refDimensionOrder ranks quasi-identifier dimensions by decreasing
// normalized span within the region.
func refDimensionOrder(t *dataset.Table, qi []int, rows []int, spans []float64) []int {
	type dw struct {
		d int
		w float64
	}
	ws := make([]dw, len(qi))
	for d, j := range qi {
		ws[d] = dw{d, refSpan(t, j, rows) / spans[d]}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].w > ws[b].w })
	out := make([]int, len(ws))
	for i, x := range ws {
		out[i] = x.d
	}
	return out
}

// refSortRows orders rows along a column: numerically for Numeric, by
// value key for categorical. It returns the rows in that order with their
// value keys; each row's number and key are read once, before the sort.
func refSortRows(t *dataset.Table, col int, rows []int) ([]int, []string) {
	type sortKey struct {
		row int
		num bool
		f   float64
		key string
	}
	numeric := t.Schema.Attrs[col].Kind == dataset.Numeric
	ks := make([]sortKey, len(rows))
	for i, r := range rows {
		v := t.At(r, col)
		ks[i] = sortKey{row: r, num: numeric && v.Kind() == dataset.Num, key: v.Key()}
		if ks[i].num {
			ks[i].f = v.Float()
		}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		if ks[a].num && ks[b].num {
			return ks[a].f < ks[b].f
		}
		return ks[a].key < ks[b].key
	})
	s := make([]int, len(ks))
	keys := make([]string, len(ks))
	for i, k := range ks {
		s[i], keys[i] = k.row, k.key
	}
	return s, keys
}

// refSplit attempts a median cut along the column; both sides must pass
// the validity check. Returns ok=false when no allowable cut exists.
func refSplit(relaxed bool, t *dataset.Table, col int, rows []int, k int, valid func([]int) bool) (left, right []int, ok bool) {
	if len(rows) < 2*k {
		return nil, nil, false
	}
	s, keys := refSortRows(t, col, rows)
	mid := len(s) / 2
	if relaxed {
		if valid(s[:mid]) && valid(s[mid:]) {
			return s[:mid], s[mid:], true
		}
		return nil, nil, false
	}
	var boundaries []int
	for i := 1; i < len(s); i++ {
		if keys[i] != keys[i-1] {
			boundaries = append(boundaries, i)
		}
	}
	sort.SliceStable(boundaries, func(a, b int) bool {
		return abs(boundaries[a]-mid) < abs(boundaries[b]-mid)
	})
	for _, cut := range boundaries {
		if cut >= k && len(s)-cut >= k && valid(s[:cut]) && valid(s[cut:]) {
			return s[:cut], s[cut:], true
		}
	}
	return nil, nil, false
}

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// refGeneralizeRegion produces the minimal generalized value for one
// column of a final region, reading every row's cell.
func refGeneralizeRegion(t *dataset.Table, col int, rows []int, cfg algorithm.Config) (dataset.Value, error) {
	attr := t.Schema.Attrs[col]
	first := t.At(rows[0], col)
	uniform := true
	for _, r := range rows[1:] {
		if !t.At(r, col).Equal(first) {
			uniform = false
			break
		}
	}
	if uniform {
		return first, nil
	}
	if attr.Kind == dataset.Numeric {
		lo, hi := 0.0, 0.0
		for i, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Num {
				return dataset.Value{}, fmt.Errorf("non-ground numeric cell in column %q", attr.Name)
			}
			x := v.Float()
			if i == 0 {
				lo, hi = x, x
			} else if x < lo {
				lo = x
			} else if x > hi {
				hi = x
			}
		}
		return dataset.IntervalVal(lo, hi), nil
	}
	if tax := cfg.Taxonomies[attr.Name]; tax != nil {
		grounds := make([]string, len(rows))
		for i, r := range rows {
			v := t.At(r, col)
			if v.Kind() != dataset.Str {
				return dataset.Value{}, fmt.Errorf("non-ground categorical cell in column %q", attr.Name)
			}
			grounds[i] = v.Text()
		}
		label, isRoot, err := tax.LCA(grounds)
		if err != nil {
			return dataset.Value{}, err
		}
		if isRoot {
			return dataset.StarVal(), nil
		}
		return dataset.SetVal(label), nil
	}
	if v, ok := refCommonPrefix(t, col, rows); ok {
		return v, nil
	}
	return dataset.StarVal(), nil
}

// refCommonPrefix generalizes equal-length string codes to their shared
// prefix.
func refCommonPrefix(t *dataset.Table, col int, rows []int) (dataset.Value, bool) {
	first := t.At(rows[0], col)
	if first.Kind() != dataset.Str {
		return dataset.Value{}, false
	}
	base := first.Text()
	n := len(base)
	common := n
	for _, r := range rows[1:] {
		v := t.At(r, col)
		if v.Kind() != dataset.Str || len(v.Text()) != n {
			return dataset.Value{}, false
		}
		s := v.Text()
		i := 0
		for i < common && s[i] == base[i] {
			i++
		}
		common = i
		if common == 0 {
			return dataset.StarVal(), true
		}
	}
	if common == n {
		return first, true
	}
	return dataset.PrefixVal(base[:common], n-common), true
}
