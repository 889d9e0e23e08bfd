package privacy

import (
	"fmt"

	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/hierarchy"
)

// GuardingNode expresses an individual's personalized privacy requirement
// in the Xiao–Tao model (§2 of the paper): the adversary must not be able
// to pin the individual's sensitive value below the guard's granularity
// with probability above the individual's tolerance.
type GuardingNode struct {
	// Label is a node label in the sensitive attribute's taxonomy ("*"
	// allows everything to be revealed — no requirement).
	Label string
	// Tolerance is the maximum acceptable breach probability in [0,1].
	Tolerance float64
}

// PersonalizedBreachVector computes, per tuple, the probability that an
// adversary confined to the tuple's equivalence class draws a sensitive
// value covered by the tuple's guarding node: |{j in class : guard covers
// s_j}| / |class|. This is the simplified (uniform-adversary) form of
// Xiao–Tao's breach probability; DESIGN.md §5 records the substitution.
func PersonalizedBreachVector(part *eqclass.Partition, sensitive []dataset.Value, tax *hierarchy.Taxonomy, guards []GuardingNode) ([]float64, error) {
	if len(sensitive) != part.N() {
		return nil, fmt.Errorf("privacy: sensitive column has %d values for %d rows", len(sensitive), part.N())
	}
	if len(guards) != part.N() {
		return nil, fmt.Errorf("privacy: %d guarding nodes for %d rows", len(guards), part.N())
	}
	if tax == nil {
		return nil, fmt.Errorf("privacy: nil sensitive taxonomy")
	}
	out := make([]float64, part.N())
	for i := range out {
		g := guards[i]
		if g.Tolerance < 0 || g.Tolerance > 1 {
			return nil, fmt.Errorf("privacy: tuple %d has tolerance %v outside [0,1]", i, g.Tolerance)
		}
		rows := part.Classes[part.ClassOf[i]]
		covered := 0
		for _, r := range rows {
			v := sensitive[r]
			if v.Kind() != dataset.Str {
				return nil, fmt.Errorf("privacy: tuple %d has non-ground sensitive value %v", r, v)
			}
			if tax.CoversValue(g.Label, v.Text()) {
				covered++
			}
		}
		out[i] = float64(covered) / float64(len(rows))
	}
	return out, nil
}

// PersonalizedSatisfied reports whether every tuple's personalized breach
// probability is within its tolerance. Tuples whose guard is the taxonomy
// root ("*") are treated as having no requirement: in the Xiao–Tao model a
// root guard means the individual does not mind full disclosure.
func PersonalizedSatisfied(part *eqclass.Partition, sensitive []dataset.Value, tax *hierarchy.Taxonomy, guards []GuardingNode) (bool, []int, error) {
	probs, err := PersonalizedBreachVector(part, sensitive, tax, guards)
	if err != nil {
		return false, nil, err
	}
	var violated []int
	for i, p := range probs {
		if guards[i].Label == "*" {
			continue
		}
		if p > guards[i].Tolerance+1e-12 {
			violated = append(violated, i)
		}
	}
	return len(violated) == 0, violated, nil
}
