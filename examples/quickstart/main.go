// Quickstart: build a tiny table, anonymize it with Mondrian, and inspect
// the paper's per-tuple privacy property vector.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"microdata"
)

func main() {
	// A small patient table: Age and ZipCode identify, Diagnosis is private.
	schema := microdata.MustSchema(
		microdata.Attribute{Name: "Age", Kind: microdata.Numeric, Role: microdata.QuasiIdentifier},
		microdata.Attribute{Name: "ZipCode", Kind: microdata.Categorical, Role: microdata.QuasiIdentifier},
		microdata.Attribute{Name: "Diagnosis", Kind: microdata.Categorical, Role: microdata.Sensitive},
	)
	c := microdata.NewColumnar(schema)
	for _, r := range []struct {
		age  float64
		zip  string
		diag string
	}{
		{29, "13053", "Flu"}, {27, "13052", "Ulcer"},
		{34, "13051", "Flu"}, {31, "13050", "Gastritis"},
		{58, "13250", "Diabetes"}, {61, "13253", "Flu"},
		{63, "13250", "Diabetes"}, {59, "13255", "Ulcer"},
		{42, "13268", "Gastritis"}, {45, "13269", "Flu"},
		{44, "13261", "Diabetes"}, {47, "13263", "Flu"},
	} {
		c.MustAppend(microdata.NumVal(r.age), microdata.StrVal(r.zip), microdata.StrVal(r.diag))
	}
	t := c.Table()

	// Generalization ladders: ages into widening bands, zips by prefix.
	hs := microdata.MustHierarchySet(
		microdata.MustIntervals("Age", 0, 100,
			microdata.IntervalLevel{Width: 10, Origin: 0},
			microdata.IntervalLevel{Width: 20, Origin: 0},
		),
		microdata.MustPrefixMask("ZipCode", 5, 10),
	)

	alg, err := microdata.NewAlgorithm("mondrian")
	if err != nil {
		log.Fatal(err)
	}
	res, err := alg.Anonymize(t, microdata.AlgorithmConfig{K: 3, Hierarchies: hs})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("anonymized table (3-anonymous):")
	fmt.Print(res.Table.Format(true))

	// The paper's point: don't stop at the scalar k — look per tuple.
	fmt.Printf("\nscalar view: k = %d\n", microdata.KAnonymity(res.Partition))
	vec := microdata.PropertyVector(microdata.ClassSizeVector(res.Partition))
	fmt.Printf("per-tuple class sizes: %v\n", []float64(vec))
	sum := microdata.Summarize(vec)
	fmt.Printf("bias: min=%.0f median=%.0f max=%.0f Gini=%.3f\n",
		sum.Min, sum.Median, sum.Max, sum.Gini)
}
