// Package dataset provides the typed microdata table substrate used by every
// other package in this module: schemas, attribute roles, tagged-union cell
// values (exact, interval, set, suppressed), and a CSV codec.
//
// The representation follows the paper's §3 conventions: a data set of size N
// over a attributes is a collection of N tuples, and an anonymized data set
// has exactly the same size as the original — suppressed tuples remain present
// in an overly generalized form rather than being removed.
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ValueKind discriminates the tagged union stored in a Value.
type ValueKind uint8

const (
	// Missing marks an absent cell. The zero Value is Missing.
	Missing ValueKind = iota
	// Num is an exact numeric value (age 28, zip 13053 when treated
	// numerically, ...).
	Num
	// Str is an exact string value (marital status "Divorced", ...).
	Str
	// Interval is a half-open numeric range (lo, hi], the generalized form
	// of numeric values. The paper prints these as "(25,35]".
	Interval
	// Prefix is a generalized string where a trailing portion has been
	// masked, printed as "1305*". Base holds the retained prefix and
	// Masked the number of masked characters.
	Prefix
	// Set is a generalized categorical value naming an interior node of a
	// taxonomy ("Married", "Not Married", ...).
	Set
	// Star is the fully suppressed value, printed "*". It generalizes any
	// value of the attribute.
	Star
)

// String returns the kind name, mainly for error messages.
func (k ValueKind) String() string {
	switch k {
	case Missing:
		return "missing"
	case Num:
		return "num"
	case Str:
		return "str"
	case Interval:
		return "interval"
	case Prefix:
		return "prefix"
	case Set:
		return "set"
	case Star:
		return "star"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is one cell of a microdata table. It is a small immutable tagged
// union; use the constructor functions rather than building literals.
type Value struct {
	kind   ValueKind
	num    float64 // Num: the value; Interval: lo
	hi     float64 // Interval: hi
	str    string  // Str: the value; Prefix: retained prefix; Set: node label
	masked int     // Prefix: number of masked characters
}

// NumVal returns an exact numeric value.
func NumVal(v float64) Value { return Value{kind: Num, num: v} }

// StrVal returns an exact string value.
func StrVal(s string) Value { return Value{kind: Str, str: s} }

// IntervalVal returns the half-open interval (lo, hi].
func IntervalVal(lo, hi float64) Value {
	if hi < lo {
		lo, hi = hi, lo
	}
	return Value{kind: Interval, num: lo, hi: hi}
}

// PrefixVal returns a masked string value retaining prefix and masking n
// trailing characters, printed as prefix followed by n asterisks.
func PrefixVal(prefix string, n int) Value {
	if n < 0 {
		n = 0
	}
	return Value{kind: Prefix, str: prefix, masked: n}
}

// SetVal returns a generalized categorical value carrying the label of a
// taxonomy node.
func SetVal(label string) Value { return Value{kind: Set, str: label} }

// StarVal returns the fully suppressed value.
func StarVal() Value { return Value{kind: Star} }

// Kind reports which member of the union is stored.
func (v Value) Kind() ValueKind { return v.kind }

// IsSuppressed reports whether the value is the fully suppressed "*".
func (v Value) IsSuppressed() bool { return v.kind == Star }

// Float returns the numeric value of a Num cell. It panics for other kinds;
// use Kind first when the kind is not statically known.
func (v Value) Float() float64 {
	if v.kind != Num {
		panic(fmt.Sprintf("dataset: Float on %s value", v.kind))
	}
	return v.num
}

// Bounds returns the (lo, hi] bounds of an Interval cell.
func (v Value) Bounds() (lo, hi float64) {
	if v.kind != Interval {
		panic(fmt.Sprintf("dataset: Bounds on %s value", v.kind))
	}
	return v.num, v.hi
}

// Text returns the string payload of a Str, Prefix or Set cell.
func (v Value) Text() string {
	switch v.kind {
	case Str, Prefix, Set:
		return v.str
	}
	panic(fmt.Sprintf("dataset: Text on %s value", v.kind))
}

// MaskedLen returns the number of masked characters of a Prefix cell.
func (v Value) MaskedLen() int {
	if v.kind != Prefix {
		panic(fmt.Sprintf("dataset: MaskedLen on %s value", v.kind))
	}
	return v.masked
}

// Equal reports structural equality of two values.
func (v Value) Equal(w Value) bool { return v == w }

// Covers reports whether v, viewed as a (possibly generalized) value,
// covers the exact ground value g. A Star covers everything; an Interval
// covers numbers in (lo,hi]; a Prefix covers strings with that prefix and
// total length len(prefix)+masked; exact values cover only themselves.
// Set coverage depends on a taxonomy and is resolved by package hierarchy;
// here a Set covers only an identical Set.
func (v Value) Covers(g Value) bool {
	switch v.kind {
	case Star:
		return true
	case Num, Str, Set:
		return v == g
	case Interval:
		switch g.kind {
		case Num:
			return g.num > v.num && g.num <= v.hi
		case Interval:
			return g.num >= v.num && g.hi <= v.hi
		}
		return false
	case Prefix:
		var s string
		switch g.kind {
		case Str:
			s = g.str
		case Num:
			s = trimFloat(g.num)
		case Prefix:
			return strings.HasPrefix(g.str, v.str) && len(g.str)+g.masked == len(v.str)+v.masked
		default:
			return false
		}
		return strings.HasPrefix(s, v.str) && len(s) == len(v.str)+v.masked
	}
	return false
}

// Key returns a canonical string used to group identical (generalized)
// values into equivalence classes. Distinct values have distinct keys.
func (v Value) Key() string {
	switch v.kind {
	case Missing:
		return "\x00missing"
	case Num:
		return "n:" + strconv.FormatFloat(v.num, 'g', -1, 64)
	case Str:
		return "s:" + v.str
	case Interval:
		return "i:" + strconv.FormatFloat(v.num, 'g', -1, 64) + "," + strconv.FormatFloat(v.hi, 'g', -1, 64)
	case Prefix:
		return "p:" + v.str + "/" + strconv.Itoa(v.masked)
	case Set:
		return "g:" + v.str
	case Star:
		return "*"
	}
	return "?"
}

// String renders the value the way the paper prints it: numbers bare,
// intervals "(25,35]", prefixes "1305*", suppression "*".
func (v Value) String() string {
	switch v.kind {
	case Missing:
		return "?"
	case Num:
		return trimFloat(v.num)
	case Str, Set:
		return v.str
	case Interval:
		return "(" + trimFloat(v.num) + "," + trimFloat(v.hi) + "]"
	case Prefix:
		return v.str + strings.Repeat("*", v.masked)
	case Star:
		return "*"
	}
	return "?"
}

func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
