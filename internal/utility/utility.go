// Package utility implements the data-utility metrics used when comparing
// disclosure control algorithms: Iyengar's general loss metric (LM) with
// per-tuple loss vectors (the paper's §3 "contribution made by a tuple to
// the total information loss"), the discernibility metric (DM), the
// average-class-size metric (C_avg) and Samarati's precision (Prec).
//
// Loss-like quantities are lower-is-better; the paper's property vectors
// are higher-is-better, so vector producers also offer a utility-oriented
// form (per-tuple retained information = attributes − loss).
//
// A cell's loss depends only on its generalized value, so LossVector and
// GeneralLossMetric score each dictionary code of a release's columns
// once, on first use, and read every other cell's loss from that memo.
package utility

import (
	"fmt"
	"math/big"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
)

// CellLoss returns the Iyengar-style loss in [0,1] of one generalized cell,
// measured against the original table's value domain:
//
//   - exact values lose 0;
//   - a Star loses 1;
//   - an Interval loses width / domain width of the column (clamped to 1);
//   - a Prefix loses maskedChars / totalChars;
//   - a Set requires the attribute's taxonomy to count covered leaves:
//     (leaves − 1) / (totalLeaves − 1).
//
// The loss depends on the generalized value alone, never on the ground
// value it replaced, so callers score each distinct value once.
func CellLoss(anon dataset.Value, attr dataset.Attribute, domLo, domHi float64, tax *hierarchy.Taxonomy) (float64, error) {
	switch anon.Kind() {
	case dataset.Num, dataset.Str:
		return 0, nil
	case dataset.Star:
		return 1, nil
	case dataset.Interval:
		lo, hi := anon.Bounds()
		if domHi <= domLo {
			return 1, nil
		}
		loss := (hi - lo) / (domHi - domLo)
		if loss > 1 {
			loss = 1
		}
		return loss, nil
	case dataset.Prefix:
		total := len(anon.Text()) + anon.MaskedLen()
		if total == 0 {
			return 1, nil
		}
		return float64(anon.MaskedLen()) / float64(total), nil
	case dataset.Set:
		if tax == nil {
			return 0, fmt.Errorf("utility: set value %q in attribute %q needs a taxonomy", anon.Text(), attr.Name)
		}
		leaves := tax.Leaves()
		if len(leaves) <= 1 {
			return 1, nil
		}
		covered := 0
		for _, leaf := range leaves {
			if tax.CoversValue(anon.Text(), leaf) {
				covered++
			}
		}
		if covered == 0 {
			return 0, fmt.Errorf("utility: set value %q not found in taxonomy of %q", anon.Text(), attr.Name)
		}
		return float64(covered-1) / float64(len(leaves)-1), nil
	default:
		return 0, fmt.Errorf("utility: cannot score %v cell in attribute %q", anon.Kind(), attr.Name)
	}
}

// LossConfig carries the domain information per-tuple loss needs.
type LossConfig struct {
	// Taxonomies maps categorical attribute names to their taxonomy, used
	// to score Set cells. Attributes generalized only by prefix masking or
	// suppression need no entry.
	Taxonomies map[string]*hierarchy.Taxonomy
}

// LossVector computes the paper's per-tuple loss property vector: element i
// is the sum of cell losses of tuple i over the quasi-identifier columns of
// anon, each in [0,1], so a tuple's loss lies in [0, #QI]. Numeric domains
// come from the ORIGINAL table so that suppression-heavy anonymizations
// cannot shrink their own denominator.
func LossVector(anon, orig *dataset.Table, cfg LossConfig) ([]float64, error) {
	out := make([]float64, anon.Len())
	_, err := eachCellLoss(anon, orig, cfg, func(i, _ int, _ uint32, loss float64) { out[i] += loss })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eachCellLoss calls fn with the loss of every quasi-identifier cell of
// anon, row by row and within a row in schema order; q is the cell's
// position among the quasi-identifiers and code its dictionary code. A
// cell's loss depends on its value alone, so each column scores each
// dictionary code once, on the code's first use: an entry no row uses is
// never scored, and the first unscoreable cell in row order is the one
// the error names. It returns the per-column, per-code losses it scored.
func eachCellLoss(anon, orig *dataset.Table, cfg LossConfig, fn func(row, q int, code uint32, loss float64)) ([][]float64, error) {
	if anon.Len() != orig.Len() {
		return nil, fmt.Errorf("utility: anonymized table has %d rows, original has %d", anon.Len(), orig.Len())
	}
	if anon.Schema.Len() != orig.Schema.Len() {
		return nil, fmt.Errorf("utility: schema width mismatch")
	}
	qi := anon.Schema.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("utility: no quasi-identifiers to score")
	}
	type column struct {
		codes        []uint32
		dict         []dataset.Value
		attr         dataset.Attribute
		domLo, domHi float64
		tax          *hierarchy.Taxonomy
		scored       []bool
	}
	cols := make([]column, len(qi))
	losses := make([][]float64, len(qi))
	for q, j := range qi {
		vec, attr := anon.ColumnVector(j), anon.Schema.Attrs[j]
		c := &cols[q]
		*c = column{codes: vec.Codes(), dict: vec.Dict(), attr: attr, tax: cfg.Taxonomies[attr.Name], scored: make([]bool, vec.Card())}
		if attr.Kind == dataset.Numeric {
			if lo, hi, ok := orig.NumericRange(j); ok {
				c.domLo, c.domHi = lo, hi
			}
		}
		losses[q] = make([]float64, vec.Card())
	}
	for i := 0; i < anon.Len(); i++ {
		for q := range cols {
			c := &cols[q]
			code := c.codes[i]
			if !c.scored[code] {
				loss, err := CellLoss(c.dict[code], c.attr, c.domLo, c.domHi, c.tax)
				if err != nil {
					return nil, fmt.Errorf("utility: row %d: %w", i, err)
				}
				losses[q][code], c.scored[code] = loss, true
			}
			fn(i, q, code, losses[q][code])
		}
	}
	return losses, nil
}

// UtilityVector converts a per-tuple loss vector into the paper's
// higher-is-better convention: retained information = #QI − loss.
func UtilityVector(anon, orig *dataset.Table, cfg LossConfig) ([]float64, error) {
	loss, err := LossVector(anon, orig, cfg)
	if err != nil {
		return nil, err
	}
	q := float64(len(anon.Schema.QuasiIdentifiers()))
	out := make([]float64, len(loss))
	for i, l := range loss {
		out[i] = q - l
	}
	return out, nil
}

// GeneralLossMetric is Iyengar's LM: the average per-cell loss over all
// quasi-identifier cells, in [0,1]. Cells are counted per dictionary code
// and each code's loss is added once with its count; LossTally sums
// exactly, so the result does not depend on row order or grouping and
// matches any other tally of the same cells bit for bit.
func GeneralLossMetric(anon, orig *dataset.Table, cfg LossConfig) (float64, error) {
	if anon.Len() == 0 {
		return 0, fmt.Errorf("utility: loss metric of empty table")
	}
	qi := anon.Schema.QuasiIdentifiers()
	counts := make([][]int64, len(qi))
	for q, j := range qi {
		counts[q] = make([]int64, anon.ColumnVector(j).Card())
	}
	losses, err := eachCellLoss(anon, orig, cfg, func(_, q int, code uint32, _ float64) { counts[q][code]++ })
	if err != nil {
		return 0, err
	}
	tally := LossTally{}
	for q, byCode := range counts {
		for code, n := range byCode {
			tally.Add(losses[q][code], n)
		}
	}
	return tally.Sum() / (float64(len(qi)) * float64(anon.Len())), nil
}

// LossTally counts cell losses by value. Its Sum is the exact Σ n·loss
// rounded once, so LM comes out the same whichever order the cells are
// visited in and however they were grouped before being counted: per
// dictionary code here, per frequency-set tuple in package engine.
type LossTally map[float64]int64

// Add counts n cells of the given loss.
func (t LossTally) Add(loss float64, n int64) {
	if n != 0 {
		t[loss] += n
	}
}

// exactPrec is a big.Float precision at which every step of Sum is exact:
// a float64 spans bits 2^-1074 .. 2^1023 and an int64 count adds 63 more,
// so 2304 bits hold any sum of up to 2^140 such products.
const exactPrec = 2304

// Sum returns Σ n·loss over the tally, computed exactly and rounded once to
// the nearest float64 (ties to even).
func (t LossTally) Sum() float64 {
	sum := new(big.Float).SetPrec(exactPrec)
	var term, n big.Float
	term.SetPrec(exactPrec)
	n.SetPrec(exactPrec)
	for loss, cnt := range t {
		n.SetInt64(cnt)
		term.SetFloat64(loss)
		term.Mul(&term, &n)
		sum.Add(sum, &term)
	}
	f, _ := sum.Float64()
	return f
}

// DiscernibilityMetric is Bayardo–Agrawal's DM: each tuple incurs a penalty
// equal to the size of its equivalence class, totalling Σ |E|². Suppressed
// tuples live in the all-star class (paper §3 convention) and are charged
// like any other class.
func DiscernibilityMetric(p *eqclass.Partition) float64 {
	s := 0.0
	for _, c := range p.Classes {
		s += float64(len(c)) * float64(len(c))
	}
	return s
}

// DiscernibilityVector is the per-tuple view of DM: tuple i is charged its
// class size. (It coincides with the class-size privacy vector — the
// privacy/utility tension the paper highlights: the same quantity is good
// for privacy and bad for utility.)
func DiscernibilityVector(p *eqclass.Partition) []float64 { return p.SizeVector() }

// AverageClassSizeMetric is LeFevre et al.'s C_avg = (N / #classes) / k,
// the normalized average equivalence class size; 1 is ideal.
func AverageClassSizeMetric(p *eqclass.Partition, k int) (float64, error) {
	if k < 1 {
		return 0, fmt.Errorf("utility: k must be positive, got %d", k)
	}
	if p.NumClasses() == 0 {
		return 0, fmt.Errorf("utility: C_avg of empty partition")
	}
	return float64(p.N()) / float64(p.NumClasses()) / float64(k), nil
}

// Precision is Samarati's Prec for global recoding: 1 minus the average of
// level/maxLevel over every quasi-identifier cell. levels is the lattice
// node used (aligned with the schema's QI order); hs supplies MaxLevel per
// attribute.
func Precision(schema *dataset.Schema, hs hierarchy.Set, levels []int) (float64, error) {
	qi := schema.QuasiIdentifiers()
	if len(levels) != len(qi) {
		return 0, fmt.Errorf("utility: %d levels for %d quasi-identifiers", len(levels), len(qi))
	}
	if len(qi) == 0 {
		return 0, fmt.Errorf("utility: no quasi-identifiers")
	}
	s := 0.0
	for li, j := range qi {
		name := schema.Attrs[j].Name
		h, ok := hs[name]
		if !ok {
			return 0, fmt.Errorf("utility: no hierarchy for %q", name)
		}
		max := h.MaxLevel()
		if levels[li] < 0 || levels[li] > max {
			return 0, fmt.Errorf("utility: level %d out of range for %q", levels[li], name)
		}
		if max > 0 {
			s += float64(levels[li]) / float64(max)
		}
	}
	return 1 - s/float64(len(qi)), nil
}
