// Package paperdata holds the paper's running example as executable
// fixtures: the hypothetical microdata of Table 1 (T1), the generalization
// ladders that produce the two 3-anonymous tables of Table 2 (T3a, T3b) and
// the 4-anonymous table of Table 3 (T4), and every worked property vector
// the paper quotes (§3, §5.3, §5.4, §5.5).
//
// All functions return fresh copies; callers may mutate freely.
package paperdata

import (
	"fmt"

	"microdata/internal/core"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
	"microdata/internal/lattice"
)

// Schema returns T1's schema: ZipCode and Age are quasi-identifiers,
// MaritalStatus is sensitive.
func Schema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
}

// rows of Table 1 in the paper's order (tuples 1..10).
var t1Rows = []struct {
	Zip     string
	Age     float64
	Marital string
}{
	{"13053", 28, "CF-Spouse"},
	{"13268", 41, "Separated"},
	{"13268", 39, "Never Married"},
	{"13053", 26, "CF-Spouse"},
	{"13253", 50, "Divorced"},
	{"13253", 55, "Spouse Absent"},
	{"13250", 49, "Divorced"},
	{"13052", 31, "Spouse Present"},
	{"13269", 42, "Separated"},
	{"13250", 47, "Separated"},
}

// T1 returns the paper's Table 1: the hypothetical 10-tuple microdata set.
func T1() *dataset.Table {
	c := dataset.NewColumnar(Schema())
	for _, r := range t1Rows {
		c.MustAppend(dataset.StrVal(r.Zip), dataset.NumVal(r.Age), dataset.StrVal(r.Marital))
	}
	return c.Table()
}

// MaritalTaxonomy returns the Marital Status taxonomy implied by Table 2:
// {CF-Spouse, Spouse Present} generalize to "Married"; {Separated, Never
// Married, Divorced, Spouse Absent} to "Not Married".
func MaritalTaxonomy() *hierarchy.Taxonomy {
	return hierarchy.MustTaxonomy("MaritalStatus", hierarchy.N("*",
		hierarchy.N("Married",
			hierarchy.N("CF-Spouse"), hierarchy.N("Spouse Present")),
		hierarchy.N("Not Married",
			hierarchy.N("Separated"), hierarchy.N("Never Married"),
			hierarchy.N("Divorced"), hierarchy.N("Spouse Absent")),
	))
}

// Hierarchies returns the quasi-identifier generalization ladders that
// reproduce the paper's three anonymizations:
//
//	ZipCode: 5-digit prefix masking (levels 0..5);
//	Age:     level 1 = width-10 intervals anchored at 5  (T3a: (25,35] ...),
//	         level 2 = width-20 intervals anchored at 15 (T3b: (15,35] ...),
//	         level 3 = width-20 intervals anchored at 0  (T4:  (20,40] ...),
//	         level 4 = suppression.
func Hierarchies() hierarchy.Set {
	return hierarchy.MustSet(
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 10, Origin: 5},
			hierarchy.IntervalLevel{Width: 20, Origin: 15},
			hierarchy.IntervalLevel{Width: 20, Origin: 0},
		),
	)
}

// Levels of the three published generalizations on the [ZipCode, Age]
// lattice built from Hierarchies.
var (
	// LevelsT3a is Table 2 (left): zip 1305*, age (25,35].
	LevelsT3a = lattice.Node{1, 1}
	// LevelsT3b is Table 2 (right): zip 130**, age (15,35].
	LevelsT3b = lattice.Node{2, 2}
	// LevelsT4 is Table 3: zip 13***, age (20,40].
	LevelsT4 = lattice.Node{3, 3}
)

// generalize builds one of the published tables, optionally generalizing
// the sensitive column through the marital taxonomy (Table 2 prints
// "Married (CF-Spouse)"; Table 3 prints "*").
func generalize(levels lattice.Node, maritalLevel int) (*dataset.Table, error) {
	anon, err := hierarchy.GeneralizeTable(T1(), Hierarchies(), levels)
	if err != nil {
		return nil, fmt.Errorf("paperdata: %w", err)
	}
	if maritalLevel > 0 {
		cols := anon.Columns()
		j := anon.Schema.Index("MaritalStatus")
		if cols[j], err = hierarchy.GeneralizeColumn(cols[j], MaritalTaxonomy(), maritalLevel); err != nil {
			return nil, fmt.Errorf("paperdata: %w", err)
		}
		return dataset.TableOf(anon.Schema, cols)
	}
	return anon, nil
}

// T3a returns the left 3-anonymous generalization of Table 2.
func T3a() *dataset.Table {
	t, err := generalize(LevelsT3a, 1)
	if err != nil {
		panic(err)
	}
	return t
}

// T3b returns the right 3-anonymous generalization of Table 2.
func T3b() *dataset.Table {
	t, err := generalize(LevelsT3b, 1)
	if err != nil {
		panic(err)
	}
	return t
}

// T4 returns the 4-anonymous generalization of Table 3 (marital status
// fully suppressed, as printed).
func T4() *dataset.Table {
	t, err := generalize(LevelsT4, 2)
	if err != nil {
		panic(err)
	}
	return t
}

// SensitiveColumn returns T1's ground Marital Status column — Table 2 shows
// these "real values ... in italics"; all diversity measurements use them.
func SensitiveColumn() []dataset.Value {
	col := make([]dataset.Value, len(t1Rows))
	for i, r := range t1Rows {
		col[i] = dataset.StrVal(r.Marital)
	}
	return col
}

// Partition computes the equivalence-class partition of an anonymized
// version of T1 over its quasi-identifiers.
func Partition(t *dataset.Table) (*eqclass.Partition, error) {
	return eqclass.FromTable(t)
}

// The paper's quoted property vectors.
var (
	// ClassSizeT3a is §3's "equivalence class property vector induced in
	// T3a": (3,3,3,3,4,4,4,3,3,4). Also Figure 1's T3a series.
	ClassSizeT3a = core.PropertyVector{3, 3, 3, 3, 4, 4, 4, 3, 3, 4}
	// ClassSizeT3b is §3's vector t for T3b: (3,7,7,3,7,7,7,3,7,7).
	ClassSizeT3b = core.PropertyVector{3, 7, 7, 3, 7, 7, 7, 3, 7, 7}
	// ClassSizeT4 is Figure 1's T4 series: (4,6,4,4,6,6,6,4,6,6).
	ClassSizeT4 = core.PropertyVector{4, 6, 4, 4, 6, 6, 6, 4, 6, 6}
	// SensitiveCountT3a is §3's ℓ-diversity property vector for T3a:
	// (2,2,1,2,2,1,2,1,2,1).
	SensitiveCountT3a = core.PropertyVector{2, 2, 1, 2, 2, 1, 2, 1, 2, 1}
	// UtilityT3a and UtilityT3b are the §5.5 Iyengar-metric utility
	// vectors u_a and u_b, quoted verbatim (the paper does not publish
	// the hierarchy configuration that produced them; see EXPERIMENTS.md).
	UtilityT3a = core.PropertyVector{2.03, 1.7, 1.7, 2.03, 1.6, 1.6, 1.6, 2.03, 1.7, 1.6}
	UtilityT3b = core.PropertyVector{2.03, 0.97, 0.97, 2.03, 0.97, 0.97, 0.97, 2.03, 0.97, 0.97}
	// SpreadExampleD1 and D2 are §5.3's hypothetical vectors.
	SpreadExampleD1 = core.PropertyVector{2, 2, 3, 4, 5}
	SpreadExampleD2 = core.PropertyVector{3, 2, 4, 2, 3}
	// SpreadThreeAnon and SpreadTwoAnon are §5.3's second example: a
	// 3-anonymous and a 2-anonymous class-size vector whose spread
	// indices "compare at 2 and 8".
	SpreadThreeAnon = core.PropertyVector{3, 3, 3, 5, 5, 5, 5, 5, 3, 3, 3, 4, 4, 4, 4}
	SpreadTwoAnon   = core.PropertyVector{2, 2, 6, 6, 6, 6, 6, 6, 3, 3, 3, 4, 4, 4, 4}
	// HvExampleS and HvExampleT are §5.4's tournament example.
	HvExampleS = core.PropertyVector{3, 3, 3, 5, 5, 5, 5, 5}
	HvExampleT = core.PropertyVector{4, 4, 4, 4, 4, 4, 4, 4}
)
