// Package generator produces deterministic synthetic census microdata in
// the style of the UCI Adult data set used throughout the disclosure
// control literature. The module is offline and carries no data files, so
// the scaled experiments (E14, E15) run on this generator instead; the
// substitution is recorded in DESIGN.md §5 — the generator exercises the
// same code paths (hierarchies, lattices, partitioning, per-tuple metrics)
// that a real census extract would, with enough attribute correlation that
// different algorithms produce genuinely different, biased anonymizations.
package generator

import (
	"fmt"
	"math/rand"

	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
	"microdata/internal/privacy"
)

// Config parameterizes a synthetic census draw.
type Config struct {
	// N is the number of tuples; must be positive.
	N int
	// Seed drives the deterministic PRNG.
	Seed int64
}

// Attribute value pools. Regional zip prefixes mirror the paper's 13xxx
// running example.
var (
	zipRegions = []string{"130", "131", "132", "133", "134", "135"}

	educations = []string{
		"No-HS", "HS-Grad", "Some-College", "Assoc-Voc",
		"Bachelors", "Masters", "Doctorate", "Prof-School",
	}

	maritals = []string{
		"CF-Spouse", "Spouse Present", "Spouse Absent",
		"Separated", "Divorced", "Never Married", "Widowed",
	}

	diseases = []string{
		"Flu", "Bronchitis", "Pneumonia",
		"Gastritis", "Ulcer", "Colitis",
		"HIV", "Hepatitis-B",
		"Diabetes", "Hypertension",
	}
)

// Schema returns the synthetic census schema: Age, ZipCode, Education and
// MaritalStatus are quasi-identifiers; Disease is sensitive.
func Schema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "Age", Kind: dataset.Numeric, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "ZipCode", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Education", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "MaritalStatus", Kind: dataset.Categorical, Role: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "Disease", Kind: dataset.Categorical, Role: dataset.Sensitive},
	)
}

// Generate draws a deterministic synthetic census table. Rows go straight
// into dictionary-encoded columns, which downstream grouping reads without
// re-encoding.
func Generate(cfg Config) (*dataset.Table, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("generator: N must be positive, got %d", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := dataset.NewColumnar(Schema())
	for i := 0; i < cfg.N; i++ {
		age := drawAge(rng)
		zip := drawZip(rng, age)
		edu := drawEducation(rng, age)
		mar := drawMarital(rng, age)
		dis := drawDisease(rng, age, zip)
		c.MustAppend(
			dataset.NumVal(float64(age)),
			dataset.StrVal(zip),
			dataset.StrVal(edu),
			dataset.StrVal(mar),
			dataset.StrVal(dis),
		)
	}
	return c.Table(), nil
}

// drawAge samples a right-skewed working-age distribution over [17, 90].
func drawAge(rng *rand.Rand) int {
	// Mixture: bulk of working ages plus a retirement tail.
	if rng.Float64() < 0.85 {
		a := 17 + int(rng.ExpFloat64()*14)
		if a > 70 {
			a = 70 - rng.Intn(20)
		}
		return a
	}
	return 60 + rng.Intn(31)
}

// drawZip samples a zip code; region prevalence shifts slightly with age so
// that geographic cuts interact with age cuts.
func drawZip(rng *rand.Rand, age int) string {
	region := rng.Intn(len(zipRegions))
	if age >= 55 && rng.Float64() < 0.4 {
		region = region % 3 // older population clusters in low regions
	}
	return fmt.Sprintf("%s%02d", zipRegions[region], rng.Intn(100))
}

// drawEducation correlates attainment with age (degrees take years).
func drawEducation(rng *rand.Rand, age int) string {
	max := len(educations)
	switch {
	case age < 20:
		max = 2
	case age < 23:
		max = 4
	case age < 27:
		max = 6
	}
	// Skew toward the middle of the available range.
	i := (rng.Intn(max) + rng.Intn(max)) / 2
	return educations[i]
}

// drawMarital correlates status with age.
func drawMarital(rng *rand.Rand, age int) string {
	switch {
	case age < 22:
		if rng.Float64() < 0.9 {
			return "Never Married"
		}
		return maritals[rng.Intn(3)]
	case age < 30:
		if rng.Float64() < 0.45 {
			return "Never Married"
		}
		return maritals[rng.Intn(5)]
	case age >= 70:
		if rng.Float64() < 0.3 {
			return "Widowed"
		}
		return maritals[rng.Intn(len(maritals))]
	default:
		return maritals[rng.Intn(len(maritals))]
	}
}

// drawDisease correlates with age (chronic diseases) and region (infectious
// clusters), giving ℓ-diversity and t-closeness something to measure.
func drawDisease(rng *rand.Rand, age int, zip string) string {
	r := rng.Float64()
	switch {
	case age >= 55 && r < 0.45:
		return diseases[8+rng.Intn(2)] // Diabetes / Hypertension
	case zip[2] >= '4' && r < 0.25:
		return diseases[6+rng.Intn(2)] // HIV / Hepatitis-B cluster
	default:
		return diseases[rng.Intn(6)] // common pool
	}
}

// Hierarchies returns nested generalization ladders for the census schema:
//
//	Age:       widths 5, 10, 20, 40 anchored at 0, then suppression;
//	ZipCode:   5-digit prefix masking;
//	Education: 3-level taxonomy (degree bands);
//	Marital:   2-level taxonomy (Married / Not Married, as in the paper).
//
// Unlike the paper's Age ladders (whose anchors shift between T3b and T4),
// these rungs are nested, so generalization monotonicity holds and the
// lattice-pruning algorithms (Incognito, Samarati) behave canonically.
func Hierarchies() hierarchy.Set {
	return hierarchy.MustSet(
		hierarchy.MustIntervals("Age", 0, 100,
			hierarchy.IntervalLevel{Width: 5, Origin: 0},
			hierarchy.IntervalLevel{Width: 10, Origin: 0},
			hierarchy.IntervalLevel{Width: 20, Origin: 0},
			hierarchy.IntervalLevel{Width: 40, Origin: 0},
		),
		hierarchy.MustPrefixMask("ZipCode", 5, 10),
		EducationTaxonomy(),
		MaritalTaxonomy(),
	)
}

// EducationTaxonomy groups attainment into School / College / Advanced.
func EducationTaxonomy() *hierarchy.Taxonomy {
	return hierarchy.MustTaxonomy("Education", hierarchy.N("*",
		hierarchy.N("School",
			hierarchy.N("No-HS"), hierarchy.N("HS-Grad")),
		hierarchy.N("College",
			hierarchy.N("Some-College"), hierarchy.N("Assoc-Voc"), hierarchy.N("Bachelors")),
		hierarchy.N("Advanced",
			hierarchy.N("Masters"), hierarchy.N("Doctorate"), hierarchy.N("Prof-School")),
	))
}

// MaritalTaxonomy extends the paper's Married / Not Married grouping with
// the Widowed status the census draw uses.
func MaritalTaxonomy() *hierarchy.Taxonomy {
	return hierarchy.MustTaxonomy("MaritalStatus", hierarchy.N("*",
		hierarchy.N("Married",
			hierarchy.N("CF-Spouse"), hierarchy.N("Spouse Present"), hierarchy.N("Spouse Absent")),
		hierarchy.N("Not Married",
			hierarchy.N("Separated"), hierarchy.N("Divorced"),
			hierarchy.N("Never Married"), hierarchy.N("Widowed")),
	))
}

// DiseaseTaxonomy organizes the sensitive attribute for personalized
// (guarding-node) privacy experiments.
func DiseaseTaxonomy() *hierarchy.Taxonomy {
	return hierarchy.MustTaxonomy("Disease", hierarchy.N("*",
		hierarchy.N("Respiratory",
			hierarchy.N("Flu"), hierarchy.N("Bronchitis"), hierarchy.N("Pneumonia")),
		hierarchy.N("Digestive",
			hierarchy.N("Gastritis"), hierarchy.N("Ulcer"), hierarchy.N("Colitis")),
		hierarchy.N("Infectious",
			hierarchy.N("HIV"), hierarchy.N("Hepatitis-B")),
		hierarchy.N("Chronic",
			hierarchy.N("Diabetes"), hierarchy.N("Hypertension")),
	))
}

// Taxonomies returns the quasi-identifier taxonomies for loss computation.
func Taxonomies() map[string]*hierarchy.Taxonomy {
	return map[string]*hierarchy.Taxonomy{
		"Education":     EducationTaxonomy(),
		"MaritalStatus": MaritalTaxonomy(),
	}
}

// Guards draws personalized guarding nodes for every tuple: most
// individuals have no requirement; carriers of stigmatized diseases guard
// their disease category with a tight tolerance.
func Guards(t *dataset.Table, seed int64) ([]privacy.GuardingNode, error) {
	j := t.Schema.Index("Disease")
	if j < 0 {
		return nil, fmt.Errorf("generator: table has no Disease column")
	}
	rng := rand.New(rand.NewSource(seed))
	tax := DiseaseTaxonomy()
	guards := make([]privacy.GuardingNode, t.Len())
	for i := range guards {
		v := t.At(i, j)
		if v.Kind() != dataset.Str {
			return nil, fmt.Errorf("generator: row %d has non-ground disease", i)
		}
		switch {
		case tax.CoversValue("Infectious", v.Text()):
			guards[i] = privacy.GuardingNode{Label: "Infectious", Tolerance: 0.25 + rng.Float64()*0.25}
		case rng.Float64() < 0.2:
			guards[i] = privacy.GuardingNode{Label: v.Text(), Tolerance: 0.4 + rng.Float64()*0.4}
		default:
			guards[i] = privacy.GuardingNode{Label: "*", Tolerance: 1}
		}
	}
	return guards, nil
}
