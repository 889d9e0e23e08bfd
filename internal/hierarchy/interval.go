package hierarchy

import (
	"fmt"
	"math"

	"microdata/internal/dataset"
)

// IntervalLevel describes one rung of an interval ladder: values are grouped
// into half-open intervals (Origin + (k-1)·Width, Origin + k·Width].
type IntervalLevel struct {
	Width  float64
	Origin float64
}

// Intervals generalizes numeric values through a ladder of anchored
// interval partitions. Level 0 is the exact value; levels 1..len(levels)
// are the configured interval partitions; level len(levels)+1 is full
// suppression. The paper's Age ladders are expressed this way: T3a uses
// width 10 anchored at 5 ((25,35], (35,45], ...), T3b width 20 anchored at
// 15, T4 width 20 anchored at 0.
type Intervals struct {
	attr       string
	levels     []IntervalLevel
	dmin, dmax float64 // domain bounds for loss normalization
}

// NewIntervals builds an interval hierarchy over the domain [dmin, dmax].
// Every level must have positive width; levels should be ordered from
// finest to coarsest but this is not required for correctness.
func NewIntervals(attr string, dmin, dmax float64, levels ...IntervalLevel) (*Intervals, error) {
	if dmax <= dmin {
		return nil, fmt.Errorf("hierarchy: intervals for %q: domain [%v,%v] is empty", attr, dmin, dmax)
	}
	for i, l := range levels {
		if l.Width <= 0 || math.IsNaN(l.Width) || math.IsInf(l.Width, 0) {
			return nil, fmt.Errorf("hierarchy: intervals for %q: level %d has width %v", attr, i+1, l.Width)
		}
	}
	return &Intervals{attr: attr, levels: levels, dmin: dmin, dmax: dmax}, nil
}

// MustIntervals is NewIntervals that panics on error, for fixtures.
func MustIntervals(attr string, dmin, dmax float64, levels ...IntervalLevel) *Intervals {
	h, err := NewIntervals(attr, dmin, dmax, levels...)
	if err != nil {
		panic(err)
	}
	return h
}

// Attribute implements Hierarchy.
func (h *Intervals) Attribute() string { return h.attr }

// MaxLevel implements Hierarchy: one rung per configured level plus the
// suppression rung.
func (h *Intervals) MaxLevel() int { return len(h.levels) + 1 }

// bucket returns the (lo, hi] interval containing x at ladder rung lv.
func (l IntervalLevel) bucket(x float64) (lo, hi float64) {
	k := math.Ceil((x - l.Origin) / l.Width)
	if l.Origin+(k-1)*l.Width >= x { // x exactly on a lower boundary
		k--
	}
	if l.Origin+k*l.Width < x {
		k++
	}
	return l.Origin + (k-1)*l.Width, l.Origin + k*l.Width
}

// Generalize implements Hierarchy.
func (h *Intervals) Generalize(v dataset.Value, level int) (dataset.Value, error) {
	if err := checkLevel(level, h.MaxLevel()); err != nil {
		return dataset.Value{}, fmt.Errorf("intervals %q: %w", h.attr, err)
	}
	if v.Kind() != dataset.Num {
		return dataset.Value{}, fmt.Errorf("intervals %q: cannot generalize %v value", h.attr, v.Kind())
	}
	x := v.Float()
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return dataset.Value{}, fmt.Errorf("intervals %q: non-finite value %v", h.attr, x)
	}
	switch {
	case level == 0:
		return v, nil
	case level == h.MaxLevel():
		return dataset.StarVal(), nil
	default:
		lo, hi := h.levels[level-1].bucket(x)
		return dataset.IntervalVal(lo, hi), nil
	}
}

// Loss implements Hierarchy: interval width over domain width, clamped to
// [0,1]; 1 for suppression.
func (h *Intervals) Loss(v dataset.Value, level int) (float64, error) {
	if err := checkLevel(level, h.MaxLevel()); err != nil {
		return 0, fmt.Errorf("intervals %q: %w", h.attr, err)
	}
	switch {
	case level == 0:
		return 0, nil
	case level == h.MaxLevel():
		return 1, nil
	default:
		loss := h.levels[level-1].Width / (h.dmax - h.dmin)
		if loss > 1 {
			loss = 1
		}
		return loss, nil
	}
}
