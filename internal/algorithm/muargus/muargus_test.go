package muargus

import (
	"testing"

	"microdata/internal/algorithm/algtest"
	"microdata/internal/dataset"
	"microdata/internal/eqclass"
	"microdata/internal/privacy"
)

func TestMuArgusOnPaperTable(t *testing.T) {
	tab, cfg := algtest.PaperConfig(3)
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With only two quasi-identifiers, order-2 checking IS the full QI
	// set, so the result must be genuinely 3-anonymous.
	algtest.CheckResult(t, tab, cfg, r)
	if r.Stats["combination_order"] != 2 {
		t.Errorf("combination order = %v", r.Stats["combination_order"])
	}
}

func TestMuArgusGuaranteeGapOnWiderQI(t *testing.T) {
	// With 4 quasi-identifiers and bivariate checking, μ-Argus may stop
	// short of full k-anonymity — the documented weakness the paper's §6
	// survey cites (larger combinations are not checked). Verify the gap
	// is observable: the full-QI partition can have classes below k even
	// though all checked (order <= 2) combinations are fine.
	tab, cfg, err := algtest.CensusConfig(400, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxSuppression = 0.05
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The output may or may not be fully k-anonymous; both are valid
	// μ-Argus outcomes. What must hold: every checked bivariate
	// combination occurs >= k times or was suppressed.
	qi := r.Table.Schema.QuasiIdentifiers()
	for a := 0; a < len(qi); a++ {
		for b := a; b < len(qi); b++ {
			counts := map[string][]int{}
			for i := 0; i < r.Table.Len(); i++ {
				key := r.Table.At(i, qi[a]).Key() + "\x1f" + r.Table.At(i, qi[b]).Key()
				counts[key] = append(counts[key], i)
			}
			for _, rows := range counts {
				if len(rows) >= cfg.K {
					continue
				}
				for _, row := range rows {
					if !r.Table.At(row, qi[a]).IsSuppressed() && !r.Table.At(row, qi[b]).IsSuppressed() {
						t.Fatalf("rare combination (%d,%d) left unhandled for row %d", a, b, row)
					}
				}
			}
		}
	}
	// Record whether the guarantee gap actually materialized (either
	// outcome passes; the experiment harness reports it).
	p, err := eqclass.FromTable(r.Table)
	if err != nil {
		t.Fatal(err)
	}
	fullyAnonymous, _ := privacy.IsKAnonymous(p, cfg.K)
	t.Logf("mu-argus full-QI %d-anonymity achieved: %v (k_actual=%d)", cfg.K, fullyAnonymous, privacy.KAnonymity(p))
}

func TestMuArgusFullOrderEqualsGuarantee(t *testing.T) {
	// When the quasi-identifier is two attributes wide, the bivariate
	// tables check every combination, which restores the guarantee.
	census, cfg, err := algtest.CensusConfig(250, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	attrs := append([]dataset.Attribute(nil), census.Schema.Attrs...)
	for j := range attrs {
		if attrs[j].Name == "Education" || attrs[j].Name == "MaritalStatus" {
			attrs[j].Role = dataset.Insensitive
		}
	}
	tab, err := dataset.TableOf(dataset.MustSchema(attrs...), census.Columns())
	if err != nil {
		t.Fatal(err)
	}
	if qi := tab.Schema.QuasiIdentifiers(); len(qi) != maxOrder {
		t.Fatalf("%d quasi-identifiers, want %d", len(qi), maxOrder)
	}
	r, err := New().Anonymize(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckResult(t, tab, cfg, r)
}

func TestMuArgusDeterminism(t *testing.T) {
	tab, cfg, err := algtest.CensusConfig(300, 4, 14)
	if err != nil {
		t.Fatal(err)
	}
	algtest.CheckDeterminism(t, New(), tab, cfg)
}

func TestMuArgusFailures(t *testing.T) {
	algtest.CheckCommonFailures(t, New())
}

func TestCombinations(t *testing.T) {
	got := combinations(3, 2)
	want := [][]int{{0}, {0, 1}, {0, 2}, {1}, {1, 2}, {2}}
	if len(got) != len(want) {
		t.Fatalf("combinations(3,2) = %v", got)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("combinations(3,2) = %v", got)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combinations(3,2) = %v", got)
			}
		}
	}
	if got := combinations(2, 5); len(got) != 3 {
		t.Errorf("order beyond n should clamp: %v", got)
	}
}
