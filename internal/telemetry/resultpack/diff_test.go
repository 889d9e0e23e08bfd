package resultpack

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestDiffIdenticalPacks(t *testing.T) {
	a, b := samplePack(), samplePack()
	if divs := Diff(a, b, DiffOptions{}); len(divs) != 0 {
		t.Fatalf("identical packs diverge: %v", divs)
	}
}

func TestDiffOrderInsensitive(t *testing.T) {
	a, b := samplePack(), samplePack()
	// Reverse the replayed pack's section order: replays are compared
	// unsealed, so Diff must canonicalize ordering itself.
	for i, j := 0, len(b.Algorithms)-1; i < j; i, j = i+1, j-1 {
		b.Algorithms[i], b.Algorithms[j] = b.Algorithms[j], b.Algorithms[i]
	}
	b.Experiments = []string{"E1", "E14"}
	if divs := Diff(a, b, DiffOptions{}); len(divs) != 0 {
		t.Fatalf("reordered sections diverge: %v", divs)
	}
	if a.Algorithms[0].Algorithm != "mondrian" {
		t.Error("Diff mutated its argument's section order")
	}
}

func TestDiffULPTolerance(t *testing.T) {
	a, b := samplePack(), samplePack()
	// Nudge lm by exactly one ULP: inside the default envelope.
	lm := float64(b.Algorithms[1].Measures["lm"])
	b.Algorithms[1].Measures["lm"] = Float(math.Nextafter(lm, 2))
	if divs := Diff(a, b, DiffOptions{}); len(divs) != 0 {
		t.Fatalf("1-ULP nudge diverges under default tolerance: %v", divs)
	}
	// A visible perturbation diverges, with a path naming the field.
	b.Algorithms[1].Measures["lm"] = Float(lm + 0.0001)
	divs := Diff(a, b, DiffOptions{})
	if len(divs) != 1 {
		t.Fatalf("perturbed measure: got %d divergences %v, want 1", len(divs), divs)
	}
	if divs[0].Path != "algorithms[k=2/datafly].measures.lm" {
		t.Errorf("divergence path = %q", divs[0].Path)
	}
	if !strings.Contains(divs[0].String(), "recorded 0.5") {
		t.Errorf("diagnostic missing recorded value: %s", divs[0])
	}
	// Tightening to ULPs=1 keeps the 1-ULP case passing; 5 ULPs away fails.
	b.Algorithms[1].Measures["lm"] = Float(nudge(lm, 5))
	if divs := Diff(a, b, DiffOptions{ULPs: 4}); len(divs) != 1 {
		t.Fatalf("5-ULP nudge under 4-ULP tolerance: %v", divs)
	}
	if divs := Diff(a, b, DiffOptions{ULPs: 5}); len(divs) != 0 {
		t.Fatalf("5-ULP nudge under 5-ULP tolerance: %v", divs)
	}
}

func nudge(v float64, ulps int) float64 {
	for i := 0; i < ulps; i++ {
		v = math.Nextafter(v, math.Inf(1))
	}
	return v
}

func TestDiffDegenerateFloatsAgree(t *testing.T) {
	a, b := samplePack(), samplePack()
	// NaN==NaN, same-sign Inf, and ±0 all count as agreement. Index 0 is
	// the mondrian entry holding the degenerate measures; index 1 datafly.
	a.Algorithms[1].Measures["extra_zero"] = 0
	b.Algorithms[1].Measures["extra_zero"] = Float(math.Copysign(0, -1))
	if divs := Diff(a, b, DiffOptions{}); len(divs) != 0 {
		t.Fatalf("±0 diverge: %v", divs)
	}
	// Sign flip on an infinity is a divergence.
	b.Algorithms[0].Measures["entropy_l"] = Float(math.Inf(-1))
	divs := Diff(a, b, DiffOptions{})
	if len(divs) != 1 || !strings.Contains(divs[0].Path, "entropy_l") {
		t.Fatalf("flipped infinity: %v", divs)
	}
	// NaN vs number is a divergence.
	b.Algorithms[0].Measures["entropy_l"] = Float(math.Inf(1))
	b.Algorithms[0].Measures["prec"] = 0.5
	divs = Diff(a, b, DiffOptions{})
	if len(divs) != 1 || !strings.Contains(divs[0].String(), "recorded NaN") {
		t.Fatalf("NaN vs number: %v", divs)
	}
}

func TestDiffExactFields(t *testing.T) {
	a, b := samplePack(), samplePack()
	b.Algorithms[1].Node = "[1 0 2 0 0 0 0 1]"
	b.Algorithms[0].Classes = 72
	b.Tables[0].SHA256 = "ffff"
	b.Comparisons[0].WTD = "right"
	divs := Diff(a, b, DiffOptions{})
	var paths []string
	for _, d := range divs {
		paths = append(paths, d.Path)
	}
	joined := strings.Join(paths, "\n")
	for _, want := range []string{
		"algorithms[k=2/datafly].node",
		"algorithms[k=10/mondrian].classes",
		"tables[E14].sha256",
		"comparisons[a.csv vs b.csv].wtd",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing divergence %q in:\n%s", want, joined)
		}
	}
	if len(divs) != 4 {
		t.Errorf("got %d divergences, want 4: %v", len(divs), divs)
	}
}

func TestDiffMissingAndExtraEntries(t *testing.T) {
	a, b := samplePack(), samplePack()
	b.Algorithms = b.Algorithms[:2]
	b.Attack = append(b.Attack, AttackRisk{Algorithm: "datafly", K: 10, Marketer: 0.5})
	b.Files = append(b.Files, FileFingerprint{Role: "b", Path: "b.csv", SHA256: "dddd"})
	delete(b.Comparisons[0].Privacy, "cov")
	divs := Diff(a, b, DiffOptions{})
	joined := ""
	for _, d := range divs {
		joined += d.String() + "\n"
	}
	for _, want := range []string{
		"algorithms[k=2/genetic]: recorded (present), replayed (absent)",
		"attack[k=10/datafly]: recorded (absent), replayed (present)",
		"files[b]: recorded (absent), replayed (present)",
		"comparisons[a.csv vs b.csv].privacy.cov: recorded (present), replayed (absent)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	if len(divs) != 4 {
		t.Errorf("got %d divergences, want 4:\n%s", len(divs), joined)
	}
}

func TestWriteDivergences(t *testing.T) {
	var buf bytes.Buffer
	WriteDivergences(&buf, []Divergence{{Path: "p", Recorded: "1", Replayed: "2"}})
	if got := buf.String(); got != "divergence: p: recorded 1, replayed 2\n" {
		t.Errorf("output = %q", got)
	}
}

func TestULPDistance(t *testing.T) {
	if d := ulpDistance(0, math.Copysign(0, -1)); d != 0 {
		t.Errorf("ulp(+0,-0) = %d", d)
	}
	if d := ulpDistance(1, math.Nextafter(1, 2)); d != 1 {
		t.Errorf("ulp(1, next) = %d", d)
	}
	if d := ulpDistance(-1, math.Nextafter(-1, -2)); d != 1 {
		t.Errorf("ulp(-1, next) = %d", d)
	}
	if d := ulpDistance(-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64); d != 2 {
		t.Errorf("ulp across zero = %d", d)
	}
	if d := ulpDistance(1, 2); d != 1<<52 {
		t.Errorf("ulp(1,2) = %d, want 2^52", d)
	}
}

// BenchmarkDiffGolden diffs the committed golden pack against itself, the
// comparison every `compare -verify` and paper-replay run ends with.
func BenchmarkDiffGolden(b *testing.B) {
	p, err := ReadFile("../../../results/census-1k.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if divs := Diff(p, p, DiffOptions{}); len(divs) != 0 {
			b.Fatal(divs)
		}
	}
}
