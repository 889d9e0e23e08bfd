package experiment

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// small keeps the scaled experiments fast under test.
var small = Options{CensusN: 200, Ks: []int{2, 5}, Seed: 1}

func runExp(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunByID(context.Background(), &buf, id, small, nil); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	exps := Registry(small)
	if len(exps) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(exps))
	}
	for i, e := range exps {
		if idNum(e.ID) != i+1 {
			t.Errorf("experiment %d has ID %s", i, e.ID)
		}
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E7", small); !ok {
		t.Error("E7 should exist")
	}
	if _, ok := Find("E99", small); ok {
		t.Error("E99 should not exist")
	}
	var buf bytes.Buffer
	if err := RunByID(context.Background(), &buf, "E99", small, nil); err == nil {
		t.Error("running unknown experiment should fail")
	}
}

func TestE1PrintsTable1(t *testing.T) {
	out := runExp(t, "E1")
	for _, want := range []string{"13053", "28", "CF-Spouse", "13250", "Separated"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 missing %q:\n%s", want, out)
		}
	}
}

func TestE2PrintsBothGeneralizations(t *testing.T) {
	out := runExp(t, "E2")
	for _, want := range []string{"1305*", "(25,35]", "130**", "(15,35]", "k-anonymity", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("E2 missing %q", want)
		}
	}
}

func TestE3PrintsT4(t *testing.T) {
	out := runExp(t, "E3")
	for _, want := range []string{"13***", "(20,40]", "(40,60]", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("E3 missing %q", want)
		}
	}
}

func TestE4PrintsFigure1Series(t *testing.T) {
	out := runExp(t, "E4")
	for _, want := range []string{
		"(3,3,3,3,4,4,4,3,3,4)",
		"(3,7,7,3,7,7,7,3,7,7)",
		"(4,6,4,4,6,6,6,4,6,6)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E4 missing series %q:\n%s", want, out)
		}
	}
}

func TestE5ReportsDominance(t *testing.T) {
	out := runExp(t, "E5")
	if !strings.Contains(out, "right strongly dominates") {
		t.Errorf("E5 should report T3b dominating T3a (as the right argument):\n%s", out)
	}
	if !strings.Contains(out, "incomparable") {
		t.Errorf("E5 should report an incomparable pair:\n%s", out)
	}
}

func TestE6RanksT3bCloserToIdeal(t *testing.T) {
	out := runExp(t, "E6")
	if !strings.Contains(out, "P_rank") || !strings.Contains(out, "left better") {
		t.Errorf("E6 output:\n%s", out)
	}
	if !strings.Contains(out, "tie") {
		t.Errorf("E6 should show the eps-tolerance tie:\n%s", out)
	}
}

func TestE7MatchesFigure3Numbers(t *testing.T) {
	out := runExp(t, "E7")
	for _, want := range []string{"P_cov(D_1,D_2)", "0.6", "P_spr(D_1,D_2)", "4", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("E7 missing %q:\n%s", want, out)
		}
	}
}

func TestE8MatchesFigure4Numbers(t *testing.T) {
	out := runExp(t, "E8")
	for _, want := range []string{"56727", "37888", "left better"} {
		if !strings.Contains(out, want) {
			t.Errorf("E8 missing %q:\n%s", want, out)
		}
	}
}

func TestE9MatchesSection3Numbers(t *testing.T) {
	out := runExp(t, "E9")
	for _, want := range []string{
		"P_k-anon(s) = min(s)", "3",
		"P_s-avg(s)", "3.4",
		"P_l-div(counts)", "1",
		"P_binary(s,t)", "0",
		"P_binary(t,s)", "7",
		"(2,2,1,2,2,1,2,1,2,1)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E9 missing %q:\n%s", want, out)
		}
	}
}

func TestE10MatchesSection53(t *testing.T) {
	out := runExp(t, "E10")
	for _, want := range []string{"P_spr(3-anon, 2-anon)", "P_spr(2-anon, 3-anon)", "8", "prefers 2-anonymous", "prefers 3-anonymous"} {
		if !strings.Contains(out, want) {
			t.Errorf("E10 missing %q:\n%s", want, out)
		}
	}
}

func TestE11ReportsTie(t *testing.T) {
	out := runExp(t, "E11")
	for _, want := range []string{"0.65", "tie", "equally good", "0.3", "1"} {
		if !strings.Contains(out, want) {
			t.Errorf("E11 missing %q:\n%s", want, out)
		}
	}
}

func TestE12LexAndGoal(t *testing.T) {
	out := runExp(t, "E12")
	for _, want := range []string{"P_LEX", "P_GOAL", "left better"} {
		if !strings.Contains(out, want) {
			t.Errorf("E12 missing %q:\n%s", want, out)
		}
	}
}

func TestE13FindsCounterexamples(t *testing.T) {
	out := runExp(t, "E13")
	if !strings.Contains(out, "counterexample after") {
		t.Errorf("E13 should find counterexamples:\n%s", out)
	}
	if !strings.Contains(out, "equivalence held") {
		t.Errorf("E13 should verify the projection panel:\n%s", out)
	}
	if strings.Contains(out, "unexpected") {
		t.Errorf("E13 hit an unexpected branch:\n%s", out)
	}
}

func TestE14RunsAllAlgorithms(t *testing.T) {
	out := runExp(t, "E14")
	for _, alg := range []string{
		"bottomup", "datafly", "samarati", "incognito", "optimal",
		"mondrian", "mondrian-relaxed", "mu-argus", "ola", "genetic", "topdown",
	} {
		if !strings.Contains(out, alg) {
			t.Errorf("E14 missing algorithm %q", alg)
		}
	}
	if strings.Contains(out, "failed:") {
		t.Errorf("E14 reports failures:\n%s", out)
	}
	for _, section := range []string{"pairwise vector comparisons", "bias summary", "coverage", "spread", "rank", "hypervolume"} {
		if !strings.Contains(out, section) {
			t.Errorf("E14 missing section %q", section)
		}
	}
}

func TestE15Ablation(t *testing.T) {
	out := runExp(t, "E15")
	for _, want := range []string{"genetic", "genetic-constrained", "optimal (reference)", "trade-off"} {
		if !strings.Contains(out, want) {
			t.Errorf("E15 missing %q:\n%s", want, out)
		}
	}
}

func TestE16ParetoFront(t *testing.T) {
	out := runExp(t, "E16")
	for _, want := range []string{
		"exact Pareto front", "NSGA-II coverage", "census", "k_act",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E16 missing %q:\n%s", want, out)
		}
	}
}

func TestE17AttackRisk(t *testing.T) {
	out := runExp(t, "E17")
	for _, want := range []string{"marketer", "target_mean", "infectious-disease carriers", "mondrian"} {
		if !strings.Contains(out, want) {
			t.Errorf("E17 missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failed:") {
		t.Errorf("E17 reports failures:\n%s", out)
	}
}

func TestE18QueryAccuracy(t *testing.T) {
	out := runExp(t, "E18")
	for _, want := range []string{"COUNT queries", "meanAbsErr", "meanRelErr", "mondrian", "datafly"} {
		if !strings.Contains(out, want) {
			t.Errorf("E18 missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failed:") {
		t.Errorf("E18 reports failures:\n%s", out)
	}
}

func TestE19NonDominance(t *testing.T) {
	out := runExp(t, "E19")
	for _, want := range []string{"minimal k-anonymous nodes", "incomparable", "privacy (class sizes)", "utility (retained)"} {
		if !strings.Contains(out, want) {
			t.Errorf("E19 missing %q:\n%s", want, out)
		}
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(context.Background(), &buf, small); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for i := 1; i <= 19; i++ {
		if !strings.Contains(out, "=== E"+strconv.Itoa(i)+":") {
			t.Errorf("RunAll missing E%d", i)
		}
	}
}
