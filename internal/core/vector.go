// Package core implements the paper's contribution: vector-based
// representation of anonymization properties and the machinery for
// comparing anonymizations through them.
//
//   - PropertyVector (Definition 1): one real measurement per tuple.
//   - Dominance relations (Table 4): weak ≿, strong ≻, non-dominance ‖.
//   - Quality indices (Definition 3): unary indices recover classical
//     scalar measures (k-anonymity = min, ℓ-diversity = min of sensitive
//     counts); binary indices (P_binary, P_cov, P_spr, P_hv, P_rank's
//     distance) power the ▶-better comparators of §5.
//   - Multi-property preference schemes (§5.5–5.7): ▶WTD, ▶LEX, ▶GOAL over
//     r-property anonymizations (Definition 2).
//
// Throughout, the paper's convention holds: a HIGHER property value for a
// tuple is better. Loss-like measurements must be negated or inverted
// before they become property vectors (package utility provides both
// forms).
package core

import (
	"fmt"
	"math"
)

// PropertyVector is the paper's Definition 1: element i measures a property
// (privacy, utility, ...) for the i-th tuple of the anonymized data set.
// Vectors compared together must have equal length — the data set size N.
type PropertyVector []float64

// Clone returns a copy of the vector.
func (v PropertyVector) Clone() PropertyVector {
	c := make(PropertyVector, len(v))
	copy(c, v)
	return c
}

// Validate rejects vectors containing NaN or infinities, which would make
// every comparator below meaningless.
func (v PropertyVector) Validate() error {
	if len(v) == 0 {
		return fmt.Errorf("core: empty property vector")
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("core: property vector has non-finite element %v at %d", x, i)
		}
	}
	return nil
}

// checkPair verifies two vectors can be compared.
func checkPair(a, b PropertyVector) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("core: comparing empty property vectors")
	}
	if len(a) != len(b) {
		return fmt.Errorf("core: comparing property vectors of size %d and %d", len(a), len(b))
	}
	return nil
}

// Negate returns the element-wise negation, turning a loss vector (lower is
// better) into a property vector under the paper's higher-is-better
// convention.
func (v PropertyVector) Negate() PropertyVector {
	out := make(PropertyVector, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

// Relation is the outcome of a dominance comparison between two property
// vectors (paper Table 4).
type Relation uint8

const (
	// Incomparable is the non-dominance relationship ‖: each vector is
	// strictly better somewhere.
	Incomparable Relation = iota
	// EqualVectors means element-wise equality (each weakly dominates the
	// other).
	EqualVectors
	// LeftDominates means the first vector strongly dominates: ≥
	// everywhere and > somewhere. "G1 is better than G2."
	LeftDominates
	// RightDominates means the second vector strongly dominates.
	RightDominates
)

// String names the relation in the paper's terms.
func (r Relation) String() string {
	switch r {
	case Incomparable:
		return "incomparable"
	case EqualVectors:
		return "equal"
	case LeftDominates:
		return "left strongly dominates"
	case RightDominates:
		return "right strongly dominates"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// WeaklyDominates reports a ≿ b: every element of a is at least the
// corresponding element of b ("not worse than", Table 4 row 1).
func WeaklyDominates(a, b PropertyVector) (bool, error) {
	if err := checkPair(a, b); err != nil {
		return false, err
	}
	for i := range a {
		if a[i] < b[i] {
			return false, nil
		}
	}
	return true, nil
}

// StronglyDominates reports a ≻ b: a ≿ b and a is strictly better for at
// least one tuple ("better than", Table 4 row 2).
func StronglyDominates(a, b PropertyVector) (bool, error) {
	weak, err := WeaklyDominates(a, b)
	if err != nil || !weak {
		return false, err
	}
	for i := range a {
		if a[i] > b[i] {
			return true, nil
		}
	}
	return false, nil
}

// Compare classifies the pair into the four mutually exclusive relations of
// Table 4.
func Compare(a, b PropertyVector) (Relation, error) {
	if err := checkPair(a, b); err != nil {
		return Incomparable, err
	}
	aBetter, bBetter := false, false
	for i := range a {
		switch {
		case a[i] > b[i]:
			aBetter = true
		case a[i] < b[i]:
			bBetter = true
		}
		if aBetter && bBetter {
			return Incomparable, nil
		}
	}
	switch {
	case aBetter:
		return LeftDominates, nil
	case bBetter:
		return RightDominates, nil
	default:
		return EqualVectors, nil
	}
}
