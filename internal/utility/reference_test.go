package utility

import (
	"fmt"

	"microdata/internal/dataset"
)

// Exported for the external tests in release_test.go.
var (
	ReferenceLossVector        = referenceLossVector
	ReferenceGeneralLossMetric = referenceGeneralLossMetric
)

// referenceEachCellLoss is the row-path reference for eachCellLoss: every
// quasi-identifier cell is read as a Value and scored on its own, row by
// row and within a row in schema order.
func referenceEachCellLoss(anon, orig *dataset.Table, cfg LossConfig, fn func(row int, loss float64)) error {
	if anon.Len() != orig.Len() {
		return fmt.Errorf("utility: anonymized table has %d rows, original has %d", anon.Len(), orig.Len())
	}
	if anon.Schema.Len() != orig.Schema.Len() {
		return fmt.Errorf("utility: schema width mismatch")
	}
	qi := anon.Schema.QuasiIdentifiers()
	if len(qi) == 0 {
		return fmt.Errorf("utility: no quasi-identifiers to score")
	}
	type domain struct{ lo, hi float64 }
	domains := make(map[int]domain, len(qi))
	for _, j := range qi {
		if anon.Schema.Attrs[j].Kind == dataset.Numeric {
			lo, hi, ok := orig.NumericRange(j)
			if !ok {
				lo, hi = 0, 0
			}
			domains[j] = domain{lo, hi}
		}
	}
	for i := 0; i < anon.Len(); i++ {
		for _, j := range qi {
			attr := anon.Schema.Attrs[j]
			d := domains[j]
			loss, err := CellLoss(anon.At(i, j), attr, d.lo, d.hi, cfg.Taxonomies[attr.Name])
			if err != nil {
				return fmt.Errorf("utility: row %d: %w", i, err)
			}
			fn(i, loss)
		}
	}
	return nil
}

// referenceLossVector is LossVector on the row-path reference.
func referenceLossVector(anon, orig *dataset.Table, cfg LossConfig) ([]float64, error) {
	out := make([]float64, anon.Len())
	if err := referenceEachCellLoss(anon, orig, cfg, func(i int, loss float64) { out[i] += loss }); err != nil {
		return nil, err
	}
	return out, nil
}

// referenceGeneralLossMetric is GeneralLossMetric on the row-path
// reference: one tally entry per cell.
func referenceGeneralLossMetric(anon, orig *dataset.Table, cfg LossConfig) (float64, error) {
	if anon.Len() == 0 {
		return 0, fmt.Errorf("utility: loss metric of empty table")
	}
	tally := LossTally{}
	if err := referenceEachCellLoss(anon, orig, cfg, func(_ int, loss float64) { tally.Add(loss, 1) }); err != nil {
		return 0, err
	}
	q := float64(len(anon.Schema.QuasiIdentifiers()))
	return tally.Sum() / (q * float64(anon.Len())), nil
}
