package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseValue checks that arbitrary field text either fails cleanly or
// produces a value whose rendering parses back to the same value.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{
		"28", "3.5", "-7", "(25,35]", "(", "(]", "(25]", "(25,35)", "(a,b]",
		"1305*", "13***", "*", "**", "?", "", "hello", "CF-Spouse",
		"(1e300,1e301]", "(-5,-2]", "nan", "NaN", "Inf", "(NaN,1]",
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, s string, numeric bool) {
		kind := Categorical
		if numeric {
			kind = Numeric
		}
		v, err := ParseValue(s, kind)
		if err != nil {
			return
		}
		rendered := v.String()
		back, err := ParseValue(rendered, kind)
		if err != nil {
			t.Fatalf("rendering %q of input %q does not parse: %v", rendered, s, err)
		}
		// Str/Set converge after rendering; compare the stable form.
		if back.String() != rendered {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, rendered, back.String())
		}
		if v.Kind() == Interval {
			lo, hi := v.Bounds()
			if hi < lo {
				t.Fatalf("parsed interval with hi < lo from %q", s)
			}
		}
	})
}

// FuzzCSVIngesterChunks checks that the chunk-tolerant ingester parses any
// input identically regardless of where the chunk boundaries fall: feeding
// the bytes in `chunk`-sized pieces must produce the same table — or the
// same error/no-error outcome — as feeding them all at once.
func FuzzCSVIngesterChunks(f *testing.F) {
	header := "ZipCode,Age,MaritalStatus\n"
	for _, body := range []string{
		"13053,28,CF-Spouse\n",
		"1305*,\"(25,35]\",Married\n*,*,*\n",
		"\"13268\",41,\"Sep,arated\"\r\n",
		"13053,28,\"quote\"\"inside\"\n",
		"13053,28,\"line\nbreak\"\n",
		"13053,28,\"crlf\r\nbreak\"\r\n",
		"\n\n13053,28,x",
		"13\"053,28,x\n",
		"\"13053,28,x\n",
		"\"13053\"z,28,x\n",
	} {
		f.Add(header+body, 1)
		f.Add(header+body, 3)
		f.Add(header+body, 7)
	}
	f.Fuzz(func(t *testing.T, in string, chunk int) {
		if chunk < 1 || chunk > len(in)+1 {
			return
		}
		schema := MustSchema(
			Attribute{Name: "ZipCode", Kind: Categorical, Role: QuasiIdentifier},
			Attribute{Name: "Age", Kind: Numeric, Role: QuasiIdentifier},
			Attribute{Name: "MaritalStatus", Kind: Categorical, Role: Sensitive},
		)
		whole := NewCSVIngester(schema)
		_, werr := whole.Write([]byte(in))
		if werr == nil {
			werr = whole.Close()
		}
		chunked := NewCSVIngester(schema)
		var cerr error
		for i := 0; i < len(in) && cerr == nil; i += chunk {
			end := i + chunk
			if end > len(in) {
				end = len(in)
			}
			_, cerr = chunked.Write([]byte(in[i:end]))
		}
		if cerr == nil {
			cerr = chunked.Close()
		}
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("chunk=%d: outcome diverged: whole=%v chunked=%v", chunk, werr, cerr)
		}
		if werr != nil {
			return
		}
		if err := SameEncoding(chunked.Table(), whole.Table()); err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
	})
}

// FuzzCSVIngesterMatchesReference checks that the chunk-tolerant
// CSVIngester and ReferenceReadCSV, the per-cell reader on encoding/csv,
// accept the same inputs and build the same dictionaries and codes from
// them.
func FuzzCSVIngesterMatchesReference(f *testing.F) {
	header := "ZipCode,Age,MaritalStatus\n"
	for _, body := range []string{
		"13053,28,CF-Spouse\n13053,28.0,CF-Spouse\n",
		"1305*,\"(25,35]\",Married\n*,*,*\n",
		"\"13053\",\" 28\",\"Married\"\r\n13053,-0,Married\n13053,0,Married",
		"13053,28,\"quote\"\"inside\"\n",
		"13053,28,\"line\nbreak\"\n",
		"13053,28,\"crlf\r\nbreak\"\r\n",
		"13053,28,lone\rcr\n",
		"\n\n13053,28,x",
		"13\"053,28,x\n",
		"13053,abc,x\n",
		"13053,28\n",
	} {
		f.Add(header + body)
	}
	f.Fuzz(func(t *testing.T, in string) {
		schema := MustSchema(
			Attribute{Name: "ZipCode", Kind: Categorical, Role: QuasiIdentifier},
			Attribute{Name: "Age", Kind: Numeric, Role: QuasiIdentifier},
			Attribute{Name: "MaritalStatus", Kind: Categorical, Role: Sensitive},
		)
		want, rerr := ReferenceReadCSV(strings.NewReader(in), schema)
		g := NewCSVIngester(schema)
		_, gerr := g.Write([]byte(in))
		if gerr == nil {
			gerr = g.Close()
		}
		if (rerr == nil) != (gerr == nil) {
			t.Fatalf("outcome diverged: reference=%v CSVIngester=%v", rerr, gerr)
		}
		if rerr != nil {
			return
		}
		if err := SameEncoding(g.Table(), want); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCSVRoundTrip checks Write∘Read stability for tables built from
// arbitrary cell text, and WriteCSV's bytes against ReferenceWriteCSV.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add("13053", "28", "Divorced")
	f.Add("1305*", "(25,35]", "*")
	f.Add("a,b", "1", "quote\"field")
	f.Add("line\nbreak", "2", "tab\tfield")
	f.Fuzz(func(t *testing.T, zip, age, marital string) {
		schema := MustSchema(
			Attribute{Name: "ZipCode", Kind: Categorical, Role: QuasiIdentifier},
			Attribute{Name: "Age", Kind: Numeric, Role: QuasiIdentifier},
			Attribute{Name: "MaritalStatus", Kind: Categorical, Role: Sensitive},
		)
		zv, err1 := ParseValue(strings.TrimSpace(zip), Categorical)
		av, err2 := ParseValue(strings.TrimSpace(age), Numeric)
		mv, err3 := ParseValue(strings.TrimSpace(marital), Categorical)
		if err1 != nil || err2 != nil || err3 != nil {
			return
		}
		// Rendering must not collide with CSV structure after encoding.
		c := NewColumnar(schema)
		c.MustAppend(zv, av, mv)
		tab := c.Table()
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tab); err != nil {
			// The one cell text CSV cannot carry is "\r\n", which
			// readers fold to "\n"; every other table must write.
			if !strings.Contains(zv.String()+"\x00"+av.String()+"\x00"+mv.String(), "\r\n") {
				t.Fatalf("write: %v", err)
			}
			return
		}
		// WriteCSV quotes as a csv.Writer does, byte for byte.
		var ref bytes.Buffer
		if err := ReferenceWriteCSV(&ref, tab); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteCSV wrote %q, reference %q (%v)", buf.Bytes(), ref.Bytes(), err)
		}
		back, err := IngestCSVTable(&buf, schema)
		if err != nil {
			// Rendered forms containing leading/trailing spaces or other
			// CSV-hostile shapes may legitimately fail to re-parse (the
			// reader trims); only structural corruption is a bug.
			return
		}
		if back.Len() != 1 {
			t.Fatalf("round trip changed row count to %d", back.Len())
		}
		for j := 0; j < 3; j++ {
			if got, want := back.At(0, j).String(), tab.At(0, j).String(); got != want {
				t.Fatalf("cell %d: %q != %q", j, got, want)
			}
		}
	})
}
