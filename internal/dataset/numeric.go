// Typed numeric columns: the non-dictionary path for high-cardinality
// numeric attributes. A dictionary-encoded Column pays one map probe and
// one dictionary slot per DISTINCT value — ideal for categorical and
// generalized data, wasteful for a measurement column where most values
// are unique. Float64Column stores the column as a flat float64 vector
// instead, so whole-attribute statistics (the utility-loss domains of
// Table.NumericRange) scan flat floats.
//
// A typed column is immutable once built and safe for any number of
// concurrent readers.
package dataset

import "math"

// Float64Column is a flat float64 column vector.
type Float64Column struct {
	vals []float64
}

// Float64ColumnOf wraps an existing vector (taking ownership) as a typed
// column.
func Float64ColumnOf(vals []float64) *Float64Column { return &Float64Column{vals: vals} }

// Len returns the number of rows.
func (c *Float64Column) Len() int { return len(c.vals) }

// Values returns the backing vector. The slice is shared; treat it as
// read-only.
func (c *Float64Column) Values() []float64 { return c.vals }

// At returns row i's value.
func (c *Float64Column) At(i int) float64 { return c.vals[i] }

// MinMax returns the column's minimum and maximum; ok is false for an
// empty column. NaN elements are ignored (a column of only NaNs reports
// ok=false).
func (c *Float64Column) MinMax() (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range c.vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

// Min returns the minimum (ok=false when empty or all-NaN).
func (c *Float64Column) Min() (float64, bool) {
	lo, _, ok := c.MinMax()
	return lo, ok
}

// Max returns the maximum (ok=false when empty or all-NaN).
func (c *Float64Column) Max() (float64, bool) {
	_, hi, ok := c.MinMax()
	return hi, ok
}
