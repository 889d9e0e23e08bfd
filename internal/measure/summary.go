package measure

import (
	"microdata/internal/privacy"
	"microdata/internal/stats"
	"microdata/internal/utility"
)

// Summary is the machine-readable scalar digest of one anonymization —
// everything a pipeline needs to log or gate on, JSON-ready. Per-tuple
// detail stays in the property vectors; this is the classical scalar view
// plus the bias statistics the paper argues must accompany it.
type Summary struct {
	// Rows is the table size N.
	Rows int `json:"rows"`
	// Classes is the number of equivalence classes.
	Classes int `json:"classes"`
	// KAnonymity is the minimum class size.
	KAnonymity int `json:"k_anonymity"`
	// DistinctL is distinct ℓ-diversity (0 when no sensitive attribute).
	DistinctL int `json:"distinct_l,omitempty"`
	// EntropyL is entropy ℓ-diversity (0 when no sensitive attribute).
	EntropyL float64 `json:"entropy_l,omitempty"`
	// TCloseness is the worst-class EMD (equal-distance ground metric).
	TCloseness float64 `json:"t_closeness,omitempty"`
	// LossMetric is Iyengar's LM in [0,1].
	LossMetric float64 `json:"loss_metric"`
	// Discernibility is Σ|class|².
	Discernibility float64 `json:"discernibility"`
	// ClassSizeGini quantifies the anonymization bias: 0 = every tuple
	// enjoys the same class size.
	ClassSizeGini float64 `json:"class_size_gini"`
	// ClassSizeMin/Median/Max sketch the per-tuple privacy distribution.
	ClassSizeMin    float64 `json:"class_size_min"`
	ClassSizeMedian float64 `json:"class_size_median"`
	ClassSizeMax    float64 `json:"class_size_max"`
}

// Summarize computes the scalar digest of the context's anonymization. The
// diversity fields stay zero when the schema has no sensitive attribute;
// any other failure to compute them is returned.
func Summarize(c *Context) (*Summary, error) {
	sizes := c.Partition.SizeVector()
	lm, err := utility.GeneralLossMetric(c.Anon, c.Orig, utility.LossConfig{Taxonomies: c.Taxonomies})
	if err != nil {
		return nil, err
	}
	dist := stats.Summarize(sizes)
	s := &Summary{
		Rows:            c.Orig.Len(),
		Classes:         c.Partition.NumClasses(),
		KAnonymity:      privacy.KAnonymity(c.Partition),
		LossMetric:      lm,
		Discernibility:  utility.DiscernibilityMetric(c.Partition),
		ClassSizeGini:   dist.Gini,
		ClassSizeMin:    dist.Min,
		ClassSizeMedian: dist.Median,
		ClassSizeMax:    dist.Max,
	}
	if c.Orig.Schema.SensitiveIndex() < 0 {
		return s, nil
	}
	// DistinctL, EntropyL and t all read the context's shared per-class
	// histograms; t's support reads the column's codes once more.
	col, hist, err := c.ClassHistograms()
	if err != nil {
		return nil, err
	}
	s.DistinctL = privacy.DistinctLDiversity(hist)
	if s.EntropyL, err = privacy.EntropyLDiversity(hist); err != nil {
		return nil, err
	}
	if s.TCloseness, err = privacy.TCloseness(hist, privacy.NewSupport(col, false)); err != nil {
		return nil, err
	}
	return s, nil
}
