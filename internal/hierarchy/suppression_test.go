package hierarchy_test

import (
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/hierarchy"
)

// The suppression-only fixture keeps the Hierarchy contract: levels 0 and
// 1, the value kept then starred, loss 0 then 1, other levels refused.
var _ hierarchy.Hierarchy = algtest.NewSuppression("")

func TestSuppressionHierarchy(t *testing.T) {
	h := algtest.NewSuppression("MaritalStatus")
	if h.MaxLevel() != 1 {
		t.Fatalf("MaxLevel = %d", h.MaxLevel())
	}
	v, err := h.Generalize(dataset.StrVal("Divorced"), 0)
	if err != nil || v.Text() != "Divorced" {
		t.Fatalf("level 0 = %v, %v", v, err)
	}
	v, err = h.Generalize(dataset.StrVal("Divorced"), 1)
	if err != nil || !v.IsSuppressed() {
		t.Fatalf("level 1 = %v, %v", v, err)
	}
	if _, err := h.Generalize(dataset.StrVal("x"), 2); err == nil {
		t.Error("level 2 should fail")
	}
	if l, _ := h.Loss(dataset.StrVal("x"), 0); l != 0 {
		t.Error("loss 0 expected")
	}
	if l, _ := h.Loss(dataset.StrVal("x"), 1); l != 1 {
		t.Error("loss 1 expected")
	}
	if _, err := h.Loss(dataset.StrVal("x"), 5); err == nil {
		t.Error("out-of-range loss level should fail")
	}
}
