package dataset

import (
	"bytes"
	"strings"
	"testing"
)

const demoCSV = `ZipCode,Age,MaritalStatus
13053,28,CF-Spouse
13268,41,Separated
1305*,"(25,35]",Married
*,*,*
`

func TestReadCSV(t *testing.T) {
	tab, err := IngestCSVTable(strings.NewReader(demoCSV), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if got := tab.At(0, 1); !got.Equal(NumVal(28)) {
		t.Errorf("row 0 age = %v", got)
	}
	if got := tab.At(2, 0); !got.Equal(PrefixVal("1305", 1)) {
		t.Errorf("row 2 zip = %v", got)
	}
	if got := tab.At(2, 1); !got.Equal(IntervalVal(25, 35)) {
		t.Errorf("row 2 age = %v", got)
	}
	if got := tab.At(3, 2); !got.IsSuppressed() {
		t.Errorf("row 3 marital = %v", got)
	}
	// Categorical generalized values read back as Str (not Set): the CSV
	// codec cannot know the taxonomy, and Str/Set with equal text compare
	// equal by Key only within their kind. Document the actual behaviour:
	if got := tab.At(2, 2); got.Kind() != Str || got.Text() != "Married" {
		t.Errorf("row 2 marital = %v (%v)", got, got.Kind())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"wrong header", "Zip,Age,MaritalStatus\n13053,28,x\n"},
		{"bad number", "ZipCode,Age,MaritalStatus\n13053,abc,x\n"},
		{"bad interval", "ZipCode,Age,MaritalStatus\n13053,\"(25]\",x\n"},
		{"reversed interval", "ZipCode,Age,MaritalStatus\n13053,\"(35,25]\",x\n"},
		{"missing value", "ZipCode,Age,MaritalStatus\n,28,x\n"},
		{"short row", "ZipCode,Age,MaritalStatus\n13053,28\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := IngestCSVTable(strings.NewReader(c.in), demoSchema(t)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := IngestCSVTable(strings.NewReader(demoCSV), demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := IngestCSVTable(&buf, demoSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip changed length: %d != %d", back.Len(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		for j := 0; j < orig.Schema.Len(); j++ {
			a, b := orig.At(i, j), back.At(i, j)
			// Str and Set converge to Str after a round trip; compare
			// by rendered form, which is the stable contract.
			if a.String() != b.String() {
				t.Errorf("cell (%d,%d): %v != %v", i, j, a, b)
			}
		}
	}
}

func TestParseValueStarRuns(t *testing.T) {
	v, err := ParseValue("*****", Categorical)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsSuppressed() {
		t.Fatalf("all-star field should be suppressed, got %v", v)
	}
}
