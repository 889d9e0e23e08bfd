package core

import (
	"fmt"
	"math"
)

// Outcome is the verdict of a ▶-better comparison between two property
// vectors (or two property-vector sets).
type Outcome uint8

const (
	// Tie means neither side is ▶-better under the comparator.
	Tie Outcome = iota
	// LeftBetter means the first argument is ▶-better.
	LeftBetter
	// RightBetter means the second argument is ▶-better.
	RightBetter
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Tie:
		return "tie"
	case LeftBetter:
		return "left better"
	case RightBetter:
		return "right better"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Comparator is a ▶-better comparator (§5): a user-defined ordering
// operation over property vectors. Implementations must be antisymmetric
// (swapping the arguments swaps LeftBetter and RightBetter) — the property
// tests enforce this.
type Comparator interface {
	// Name identifies the comparator ("cov", "spr", ...).
	Name() string
	// Compare evaluates which vector is ▶-better.
	Compare(a, b PropertyVector) (Outcome, error)
}

// fromBinary adapts a binary quality index P with the standard rule
// P(a,b) > P(b,a) ⟺ a ▶ b shared by ▶cov, ▶spr and ▶hv.
type fromBinary struct {
	name string
	idx  BinaryIndex
}

func (c fromBinary) Name() string { return c.name }

func (c fromBinary) Compare(a, b PropertyVector) (Outcome, error) {
	ab, err := EvalBinary(c.idx, a, b)
	if err != nil {
		return Tie, err
	}
	ba, err := EvalBinary(c.idx, b, a)
	if err != nil {
		return Tie, err
	}
	if math.IsNaN(ab) || math.IsNaN(ba) {
		return Tie, fmt.Errorf("core: comparator %q: index %q is undefined for these vectors", c.name, c.idx.Name)
	}
	switch {
	case ab > ba:
		return LeftBetter, nil
	case ba > ab:
		return RightBetter, nil
	default:
		return Tie, nil
	}
}

// CovBetter is the §5.2 coverage comparator ▶cov: the vector giving at
// least as good a value to more tuples wins.
func CovBetter() Comparator { return fromBinary{name: "cov", idx: PCov} }

// SprBetter is the §5.3 spread comparator ▶spr: the vector with the larger
// total magnitude of superiority wins.
func SprBetter() Comparator { return fromBinary{name: "spr", idx: PSpr} }

// HvBetter is the §5.4 hypervolume comparator ▶hv using the paper-exact
// product form; suitable for vectors of up to a few hundred positive
// entries.
func HvBetter() Comparator { return fromBinary{name: "hv", idx: PHv} }

// HvLogBetter is ▶hv computed in log space for large data sets; requires
// strictly positive vectors.
func HvLogBetter() Comparator { return fromBinary{name: "hv-log", idx: PHvLog} }

// minBetter is the §4 ▶min comparator used implicitly by k-anonymity:
// D1 ▶min D2 iff min(D1) > min(D2). It ignores the anonymization bias —
// that is the paper's point — and is provided as the classical baseline.
type minBetter struct{}

// MinBetter returns the classical scalar ▶min comparator.
func MinBetter() Comparator { return minBetter{} }

func (minBetter) Name() string { return "min" }

func (minBetter) Compare(a, b PropertyVector) (Outcome, error) {
	if err := checkPair(a, b); err != nil {
		return Tie, err
	}
	ma, mb := minOf(a), minOf(b)
	switch {
	case ma > mb:
		return LeftBetter, nil
	case mb > ma:
		return RightBetter, nil
	default:
		return Tie, nil
	}
}

// RankBetter is the §5.1 rank comparator ▶rank: vectors are ranked by
// distance from the most desired vector Dmax; a tolerance Eps treats
// near-equal ranks as ties ("two property vectors differing in rank by ε or
// less are considered equally good").
type RankBetter struct {
	// Dmax is the point of interest, usually the vector giving every tuple
	// the maximum measure of the property.
	Dmax PropertyVector
	// Eps is the rank tolerance; 0 means exact comparison.
	Eps float64
	// Norm selects the distance; the zero value is the Euclidean L2.
	Norm Norm
}

// Name implements Comparator.
func (r RankBetter) Name() string { return "rank" }

// Compare implements Comparator.
func (r RankBetter) Compare(a, b PropertyVector) (Outcome, error) {
	if err := checkPair(a, b); err != nil {
		return Tie, err
	}
	if len(a) != len(r.Dmax) {
		return Tie, fmt.Errorf("core: rank comparator: Dmax has size %d, vectors have size %d", len(r.Dmax), len(a))
	}
	if r.Eps < 0 || math.IsNaN(r.Eps) {
		return Tie, fmt.Errorf("core: rank comparator: invalid tolerance %v", r.Eps)
	}
	idx := PRankWith(r.Dmax, r.Norm)
	ra, rb := idx.F(a), idx.F(b)
	if math.Abs(ra-rb) <= r.Eps {
		return Tie, nil
	}
	// Lower rank (distance) is better.
	if ra < rb {
		return LeftBetter, nil
	}
	return RightBetter, nil
}
