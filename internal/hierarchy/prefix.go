package hierarchy

import (
	"fmt"

	"microdata/internal/dataset"
)

// PrefixMask generalizes fixed-length code strings (zip codes) by masking
// trailing characters: level l masks the last l characters, so a 5-digit
// zip has levels 0 ("13053") through 5 ("*****" ≡ "*"). Masking the whole
// string is rendered as the suppressed value.
type PrefixMask struct {
	attr   string
	length int
}

// NewPrefixMask builds a prefix-mask hierarchy for codes of the given fixed
// length. radix is the number of possible characters per position (10 for
// digit codes); it is checked to be at least 2 and otherwise unused, since
// the loss of a masked code is its fraction of masked characters whatever
// the alphabet.
func NewPrefixMask(attr string, length, radix int) (*PrefixMask, error) {
	if length <= 0 {
		return nil, fmt.Errorf("hierarchy: prefix mask for %q: non-positive length %d", attr, length)
	}
	if radix < 2 {
		return nil, fmt.Errorf("hierarchy: prefix mask for %q: radix %d < 2", attr, radix)
	}
	return &PrefixMask{attr: attr, length: length}, nil
}

// MustPrefixMask is NewPrefixMask that panics on error, for fixtures.
func MustPrefixMask(attr string, length, radix int) *PrefixMask {
	h, err := NewPrefixMask(attr, length, radix)
	if err != nil {
		panic(err)
	}
	return h
}

// Attribute implements Hierarchy.
func (h *PrefixMask) Attribute() string { return h.attr }

// MaxLevel implements Hierarchy: one level per maskable character.
func (h *PrefixMask) MaxLevel() int { return h.length }

func (h *PrefixMask) ground(v dataset.Value) (string, error) {
	if v.Kind() != dataset.Str {
		return "", fmt.Errorf("prefix mask %q: cannot generalize %v value", h.attr, v.Kind())
	}
	s := v.Text()
	if len(s) != h.length {
		return "", fmt.Errorf("prefix mask %q: value %q has length %d, want %d", h.attr, s, len(s), h.length)
	}
	return s, nil
}

// Generalize implements Hierarchy.
func (h *PrefixMask) Generalize(v dataset.Value, level int) (dataset.Value, error) {
	if err := checkLevel(level, h.length); err != nil {
		return dataset.Value{}, fmt.Errorf("prefix mask %q: %w", h.attr, err)
	}
	s, err := h.ground(v)
	if err != nil {
		return dataset.Value{}, err
	}
	switch level {
	case 0:
		return v, nil
	case h.length:
		return dataset.StarVal(), nil
	default:
		return dataset.PrefixVal(s[:h.length-level], level), nil
	}
}

// Loss implements Hierarchy as the fraction of masked characters. This is
// the convention used for code attributes where each character carries
// comparable identifying power.
func (h *PrefixMask) Loss(v dataset.Value, level int) (float64, error) {
	if err := checkLevel(level, h.length); err != nil {
		return 0, fmt.Errorf("prefix mask %q: %w", h.attr, err)
	}
	if _, err := h.ground(v); err != nil {
		return 0, err
	}
	return float64(level) / float64(h.length), nil
}
