// Package measure turns anonymizations into the paper's r-property view
// (Definition 2): a named catalogue of property extractors, each mapping an
// anonymized table to one per-tuple property vector, plus helpers that
// bundle several extractors into a core.PropertySet ready for the WTD, LEX
// and GOAL multi-property comparators.
//
// Every extractor yields vectors under the paper's higher-is-better
// convention — loss-like measurements are returned negated or inverted, so
// a PropertySet mixes privacy and utility properties safely. The sensitive
// properties and the summary's ℓ and t all read one per-class histogram of
// the original sensitive column (eqclass.Histograms), tallied once per
// Context.
package measure

import (
	"fmt"
	"sync"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/privacy"
	"microdata/internal/utility"
)

// Context carries everything an extractor may need about one
// anonymization of one original table, plus lazily shared intermediates:
// the original table's sensitive column and its per-class histograms are
// computed once and reused by every extractor that needs them.
type Context struct {
	// Orig is the original microdata table.
	Orig *dataset.Table
	// Anon is the anonymized table (same size, paper §3 convention).
	Anon *dataset.Table
	// Partition groups Anon into equivalence classes; NewContext computes
	// it when nil.
	Partition *eqclass.Partition
	// Taxonomies feeds loss scoring of Set-generalized cells.
	Taxonomies map[string]*hierarchy.Taxonomy

	histOnce sync.Once
	sens     *dataset.Column
	hist     *eqclass.Histograms
	histErr  error
}

// NewContext validates and completes a measurement context.
func NewContext(orig, anon *dataset.Table, taxonomies map[string]*hierarchy.Taxonomy) (*Context, error) {
	if orig == nil || anon == nil {
		return nil, fmt.Errorf("measure: nil table")
	}
	if orig.Len() != anon.Len() {
		return nil, fmt.Errorf("measure: anonymized table has %d rows, original has %d (suppressed tuples must be kept)", anon.Len(), orig.Len())
	}
	if orig.Len() == 0 {
		return nil, fmt.Errorf("measure: empty table")
	}
	p, err := eqclass.FromTable(anon)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	return &Context{Orig: orig, Anon: anon, Partition: p, Taxonomies: taxonomies}, nil
}

// ClassHistograms returns the original table's dictionary-encoded
// sensitive column and its per-class histograms over the partition,
// tallied once and shared by SensitiveCount, DistinctSensitive,
// BreachSafety, TClosenessSafety and Summarize.
func (c *Context) ClassHistograms() (*dataset.Column, *eqclass.Histograms, error) {
	c.histOnce.Do(func() {
		si := c.Orig.Schema.SensitiveIndex()
		if si < 0 {
			c.histErr = fmt.Errorf("measure: schema has no sensitive attribute")
			return
		}
		c.sens = c.Orig.ColumnVector(si)
		c.hist, c.histErr = c.Partition.Histograms(c.sens)
	})
	return c.sens, c.hist, c.histErr
}

// Property is one measurable per-tuple property of an anonymization.
type Property struct {
	// Name identifies the property in reports.
	Name string
	// Extract computes the property vector (higher is better).
	Extract func(*Context) (core.PropertyVector, error)
}

// ClassSize is the paper's k-anonymity property: tuple i's equivalence
// class size.
func ClassSize() Property {
	return Property{
		Name: "class-size",
		Extract: func(c *Context) (core.PropertyVector, error) {
			return core.PropertyVector(c.Partition.SizeVector()), nil
		},
	}
}

// SensitiveCount is the paper's §3 ℓ-diversity property: how often tuple
// i's sensitive value appears in its class. NOTE the orientation: the
// paper treats higher counts as better representation; for attack
// resistance, combine with BreachSafety below.
func SensitiveCount() Property {
	return Property{
		Name: "sensitive-count",
		Extract: func(c *Context) (core.PropertyVector, error) {
			col, hist, err := c.ClassHistograms()
			if err != nil {
				return nil, err
			}
			v, err := privacy.OwnCountVector(c.Partition, col, hist)
			if err != nil {
				return nil, err
			}
			return core.PropertyVector(v), nil
		},
	}
}

// DistinctSensitive counts distinct sensitive values in tuple i's class —
// the per-tuple distinct ℓ-diversity property.
func DistinctSensitive() Property {
	return Property{
		Name: "distinct-sensitive",
		Extract: func(c *Context) (core.PropertyVector, error) {
			_, hist, err := c.ClassHistograms()
			if err != nil {
				return nil, err
			}
			v, err := privacy.DistinctCountVector(c.Partition, hist)
			if err != nil {
				return nil, err
			}
			return core.PropertyVector(v), nil
		},
	}
}

// BreachSafety is 1 − (frequency of tuple i's own sensitive value in its
// class): the probability an in-class adversary guess is WRONG. Higher is
// safer.
func BreachSafety() Property {
	return Property{
		Name: "breach-safety",
		Extract: func(c *Context) (core.PropertyVector, error) {
			col, hist, err := c.ClassHistograms()
			if err != nil {
				return nil, err
			}
			probs, err := privacy.BreachProbabilityVector(c.Partition, col, hist)
			if err != nil {
				return nil, err
			}
			out := make(core.PropertyVector, len(probs))
			for i, p := range probs {
				out[i] = 1 - p
			}
			return out, nil
		},
	}
}

// TClosenessSafety is 1 − the EMD between tuple i's class distribution and
// the global sensitive distribution (equal-distance ground metric). Higher
// means the class leaks less distributional information.
func TClosenessSafety() Property {
	return Property{
		Name: "t-closeness-safety",
		Extract: func(c *Context) (core.PropertyVector, error) {
			col, hist, err := c.ClassHistograms()
			if err != nil {
				return nil, err
			}
			d, err := privacy.TClosenessVector(c.Partition, hist, privacy.NewSupport(col, false))
			if err != nil {
				return nil, err
			}
			out := make(core.PropertyVector, len(d))
			for i, x := range d {
				out[i] = 1 - x
			}
			return out, nil
		},
	}
}

// RetainedInformation is the per-tuple utility property: #QI − Iyengar
// loss, the paper's utility side of the §5.5 example.
func RetainedInformation() Property {
	return Property{
		Name: "retained-information",
		Extract: func(c *Context) (core.PropertyVector, error) {
			u, err := utility.UtilityVector(c.Anon, c.Orig, utility.LossConfig{Taxonomies: c.Taxonomies})
			if err != nil {
				return nil, err
			}
			return core.PropertyVector(u), nil
		},
	}
}

// Discernibility is the NEGATED per-tuple discernibility penalty (class
// size charged as cost): higher (less negative) is better utility.
func Discernibility() Property {
	return Property{
		Name: "discernibility",
		Extract: func(c *Context) (core.PropertyVector, error) {
			v := utility.DiscernibilityVector(c.Partition)
			return core.PropertyVector(v).Negate(), nil
		},
	}
}

// Measure evaluates the properties in order, producing the r-property set
// of Definition 2.
func Measure(c *Context, props ...Property) (core.PropertySet, error) {
	if len(props) == 0 {
		return nil, fmt.Errorf("measure: no properties requested")
	}
	set := make(core.PropertySet, len(props))
	for i, p := range props {
		v, err := p.Extract(c)
		if err != nil {
			return nil, fmt.Errorf("measure: property %q: %w", p.Name, err)
		}
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("measure: property %q: %w", p.Name, err)
		}
		set[i] = v
	}
	return set, nil
}
