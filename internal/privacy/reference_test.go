package privacy_test

// The reference below is the per-class sensitive histogram as the paper
// defines it: one map per class, keyed by Value.Key, tallied row by row,
// and a support made of the column's distinct keys. Every model and
// measure that reads the code histograms (eqclass.Histograms) and the
// code-indexed privacy.Support is pinned to it bit for bit.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/measure"
	"microdata/internal/privacy"
)

// refCounts tallies, per class, each sensitive value by Value.Key.
func refCounts(p *eqclass.Partition, vals []dataset.Value) []map[string]int {
	out := make([]map[string]int, p.NumClasses())
	for ci, rows := range p.Classes {
		out[ci] = map[string]int{}
		for _, r := range rows {
			out[ci][vals[r].Key()]++
		}
	}
	return out
}

// refSupport orders the column's distinct keys — numerically when ordered
// and every value is a number, else by key — and returns the column's
// distribution over them.
func refSupport(vals []dataset.Value, ordered bool) (keys []string, global []float64) {
	tally := map[string]int{}
	nums := map[string]float64{}
	numeric := true
	for _, v := range vals {
		k := v.Key()
		if tally[k] == 0 {
			keys = append(keys, k)
			if v.Kind() == dataset.Num {
				nums[k] = v.Float()
			} else {
				numeric = false
			}
		}
		tally[k]++
	}
	if ordered && numeric {
		sort.Slice(keys, func(i, j int) bool { return nums[keys[i]] < nums[keys[j]] })
	} else {
		sort.Strings(keys)
	}
	for _, k := range keys {
		global = append(global, float64(tally[k])/float64(len(vals)))
	}
	return keys, global
}

// refEMD is a class's distance from the column over the reference support.
func refEMD(counts map[string]int, keys []string, global []float64, ordered bool) float64 {
	size := 0
	for _, c := range counts {
		size += c
	}
	local := make([]float64, len(keys))
	for i, k := range keys {
		local[i] = float64(counts[k]) / float64(size)
	}
	return privacy.EMD(local, global, ordered)
}

// mapCounts lists a class's counts in map order.
func mapCounts(m map[string]int) []int {
	var out []int
	for _, c := range m {
		out = append(out, c)
	}
	return out
}

// valueOf maps a byte onto a mix of every value kind a sensitive column
// can hold: Missing, ±0 and other numbers, strings, Set labels, intervals
// and masked prefixes.
func valueOf(b byte) dataset.Value {
	v := int(b / 8)
	switch b % 8 {
	case 0:
		return dataset.Value{}
	case 1:
		return dataset.NumVal(0)
	case 2:
		return dataset.NumVal(math.Copysign(0, -1))
	case 3:
		return dataset.NumVal(float64(v%7) - 3)
	case 4:
		return dataset.StrVal(string(rune('a' + v%4)))
	case 5:
		return dataset.SetVal(fmt.Sprintf("set%d", v%3))
	case 6:
		return dataset.IntervalVal(float64(v%3), float64(v%3)+5)
	default:
		return dataset.PrefixVal("13", v%3+1)
	}
}

// fixture decodes bytes into a partition and its sensitive values: each
// pair of bytes is one row, its class label and its value.
func fixture(data []byte) (*eqclass.Partition, []dataset.Value, []int, bool) {
	n := len(data) / 2
	if n == 0 {
		return nil, nil, nil, false
	}
	vals := make([]dataset.Value, n)
	label := make([]int, n)
	index := map[byte]int{}
	var groups [][]int
	for i := 0; i < n; i++ {
		g := data[2*i] % 16
		ci, ok := index[g]
		if !ok {
			ci = len(groups)
			index[g] = ci
			groups = append(groups, nil)
		}
		groups[ci] = append(groups[ci], i)
		label[i] = int(g)
		vals[i] = valueOf(data[2*i+1])
	}
	p, err := eqclass.FromGroups(n, groups)
	if err != nil {
		panic(err)
	}
	return p, vals, label, true
}

// encode returns the values as a dictionary-encoded column.
func encode(t testing.TB, vals []dataset.Value) *dataset.Column {
	t.Helper()
	codes := make([]uint32, len(vals))
	for i := range codes {
		codes[i] = uint32(i)
	}
	col, err := dataset.ColumnFromCodes(vals, codes)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// checkHistograms requires the code histograms and both supports of the
// column to equal the reference's.
func checkHistograms(t testing.TB, p *eqclass.Partition, vals []dataset.Value, col *dataset.Column, h *eqclass.Histograms) {
	t.Helper()
	ref := refCounts(p, vals)
	if h.Len() != len(ref) {
		t.Fatalf("%d histograms for %d classes", h.Len(), len(ref))
	}
	keys := col.DictKeys()
	for ci, m := range ref {
		sens, hist := h.Class(ci)
		if len(sens) != len(m) {
			t.Fatalf("class %d: %d entries, reference %v", ci, len(sens), m)
		}
		for e, c := range sens {
			if int(hist[e]) != m[keys[c]] {
				t.Fatalf("class %d value %q: count %d, reference %d", ci, keys[c], hist[e], m[keys[c]])
			}
		}
	}
	for _, ordered := range []bool{false, true} {
		sup := privacy.NewSupport(col, ordered)
		rk, rg := refSupport(vals, ordered)
		if len(sup.Global) != len(rg) {
			t.Fatalf("ordered=%v: support of %d values, reference %d", ordered, len(sup.Global), len(rg))
		}
		for c, at := range sup.Pos {
			if rk[at] != keys[c] {
				t.Fatalf("ordered=%v: %q at %d, reference has %q there", ordered, keys[c], at, rk[at])
			}
		}
		for i := range rg {
			if math.Float64bits(sup.Global[i]) != math.Float64bits(rg[i]) {
				t.Fatalf("ordered=%v: global[%d] = %v, reference %v", ordered, i, sup.Global[i], rg[i])
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestHistogramsMatchReference pins the code histograms, the supports and
// every model and measure computed from them to the string-keyed
// reference, on random partitions whose sensitive columns mix every value
// kind.
func TestHistogramsMatchReference(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		data := make([]byte, 2*(1+seed%60))
		x := uint32(seed)*2654435761 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
			if i%2 == 0 {
				data[i] %= byte(1 + seed%9)
			}
		}
		p, vals, label, _ := fixture(data)
		col := encode(t, vals)
		h, err := p.Histograms(col)
		if err != nil {
			t.Fatal(err)
		}
		checkHistograms(t, p, vals, col, h)
		ref := refCounts(p, vals)

		distinct, entropy := math.MaxInt, math.Inf(1)
		for _, m := range ref {
			distinct = min(distinct, len(m))
			entropy = math.Min(entropy, privacy.EntropyL(mapCounts(m)))
		}
		if got := privacy.DistinctLDiversity(h); got != distinct {
			t.Fatalf("seed %d: distinct ℓ = %d, reference %d", seed, got, distinct)
		}
		if got, err := privacy.EntropyLDiversity(h); err != nil || math.Float64bits(got) != math.Float64bits(entropy) {
			t.Fatalf("seed %d: entropy ℓ = %v (%v), reference %v", seed, got, err, entropy)
		}
		for _, cl := range []struct {
			c float64
			l int
		}{{1, 1}, {2, 2}, {3, 2}, {1.5, 3}} {
			want := true
			for _, m := range ref {
				want = want && privacy.RecursiveCL(mapCounts(m), cl.c, cl.l)
			}
			got := true
			var counts []int
			for ci := 0; ci < h.Len(); ci++ {
				_, hist := h.Class(ci)
				counts = privacy.Counts(counts, hist)
				got = got && privacy.RecursiveCL(counts, cl.c, cl.l)
			}
			if got != want {
				t.Fatalf("seed %d: recursive (%v,%d) = %v, reference %v", seed, cl.c, cl.l, got, want)
			}
		}

		own := make([]float64, p.N())
		nDistinct := make([]float64, p.N())
		breach := make([]float64, p.N())
		for i, v := range vals {
			m := ref[p.ClassOf[i]]
			own[i] = float64(m[v.Key()])
			nDistinct[i] = float64(len(m))
			breach[i] = own[i] / float64(p.Size(i))
		}
		got, err := privacy.OwnCountVector(p, col, h)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "own counts", got, own)
		if got, err = privacy.SensitiveCountVector(p, vals); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "sensitive counts", got, own)
		if got, err = privacy.DistinctCountVector(p, h); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "distinct counts", got, nDistinct)
		if got, err = privacy.BreachProbabilityVector(p, col, h); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "breach probabilities", got, breach)

		tvec := map[bool][]float64{}
		worst := map[bool]float64{}
		for _, ordered := range []bool{false, true} {
			keys, global := refSupport(vals, ordered)
			tvec[ordered] = make([]float64, p.N())
			for i := range vals {
				d := refEMD(ref[p.ClassOf[i]], keys, global, ordered)
				tvec[ordered][i] = d
				worst[ordered] = math.Max(worst[ordered], d)
			}
			sup := privacy.NewSupport(col, ordered)
			if got, err := privacy.TCloseness(h, sup); err != nil || math.Float64bits(got) != math.Float64bits(worst[ordered]) {
				t.Fatalf("seed %d ordered=%v: t = %v (%v), reference %v", seed, ordered, got, err, worst[ordered])
			}
			got, err := privacy.TClosenessVector(p, h, sup)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, fmt.Sprintf("t vector (ordered=%v)", ordered), got, tvec[ordered])
		}

		// The measures read the same histograms through a context over a
		// table whose quasi-identifier is the class label.
		c := measureContext(t, label, vals)
		set, err := measure.Measure(c, measure.SensitiveCount(), measure.DistinctSensitive(),
			measure.BreachSafety(), measure.TClosenessSafety())
		if err != nil {
			t.Fatal(err)
		}
		safety := make([]float64, p.N())
		tsafety := make([]float64, p.N())
		for i := range safety {
			safety[i] = 1 - breach[i]
			tsafety[i] = 1 - tvec[false][i]
		}
		sameBits(t, "sensitive-count", set[0], own)
		sameBits(t, "distinct-sensitive", set[1], nDistinct)
		sameBits(t, "breach-safety", set[2], safety)
		sameBits(t, "t-closeness-safety", set[3], tsafety)
		s, err := measure.Summarize(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.DistinctL != distinct || math.Float64bits(s.EntropyL) != math.Float64bits(entropy) ||
			math.Float64bits(s.TCloseness) != math.Float64bits(worst[false]) {
			t.Fatalf("seed %d: summary (%d, %v, %v), reference (%d, %v, %v)", seed,
				s.DistinctL, s.EntropyL, s.TCloseness, distinct, entropy, worst[false])
		}
	}
}

// measureContext builds a measurement context over a table whose one
// quasi-identifier holds each row's class label, so the context's
// partition has the fixture's classes.
func measureContext(t *testing.T, label []int, vals []dataset.Value) *measure.Context {
	t.Helper()
	b := dataset.NewColumnar(dataset.MustSchema(
		dataset.Attribute{Name: "G", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "S", Kind: dataset.Categorical, Role: dataset.Sensitive},
	))
	for i, v := range vals {
		b.MustAppend(dataset.StrVal(fmt.Sprint(label[i])), v)
	}
	tab := b.Table()
	c, err := measure.NewContext(tab, tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzClassHistograms decodes bytes into a partition and a sensitive
// column of mixed value kinds and checks the code histograms and both
// supports against the reference.
func FuzzClassHistograms(f *testing.F) {
	f.Add([]byte{0, 3})                   // a single row
	f.Add([]byte{0, 4, 1, 4, 0, 4, 2, 4}) // a single value
	f.Add([]byte{0, 1, 0, 2, 1, 1, 1, 2}) // +0 and -0 apart and together
	f.Add([]byte{0, 0, 1, 0, 1, 3, 0, 8}) // Missing beside numbers
	f.Fuzz(func(t *testing.T, data []byte) {
		p, vals, _, ok := fixture(data)
		if !ok {
			return
		}
		col := encode(t, vals)
		h, err := p.Histograms(col)
		if err != nil {
			t.Fatal(err)
		}
		checkHistograms(t, p, vals, col, h)
	})
}
