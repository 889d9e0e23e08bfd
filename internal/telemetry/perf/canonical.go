// Package perf turns benchmark runs into verifiable artifacts. A run of
// the repository benchmark (benchmark/ --pack) produces a "perf pack": a
// versioned JSON document (schema "microdata/perf-pack") holding
// per-workload metric sample series and an environment fingerprint,
// serialized as canonical JSON (JCS-style sorted keys, no insignificant
// whitespace) and sealed with a SHA-256 self-manifest. Packs from two runs
// are compared with a median/MAD statistical comparator that classifies
// every end-to-end metric as ok, improved or drifted (cmd/benchdiff).
//
// The pack envelope (envelope.go) seals, writes, reads and verifies both
// pack kinds: perf packs and the result packs of package resultpack.
//
// The package also defines the stable CLI exit-code contract shared by
// anonbench, compare and benchdiff (see ExitOK and friends), patterned on
// gait's PackSpec v1 contract: distinct codes for verification failure,
// regression drift and invalid input so scripts can branch on the outcome
// without parsing output.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Canonicalize rewrites a JSON document into its canonical form: object
// keys sorted lexicographically (byte order), no insignificant whitespace,
// strings minimally escaped (no HTML escaping), and number literals kept
// verbatim as decoded. The transform is idempotent, so a canonical
// document round-trips byte-identically — the property the pack manifest
// hash relies on.
//
// This is JCS-style (RFC 8785 spirit): because every pack is produced by
// this package's own encoder, preserving number literals verbatim yields a
// unique canonical form without re-deriving ES6 number formatting.
func Canonicalize(raw []byte) ([]byte, error) {
	v, rest, err := decodeJSON(raw)
	if err != nil {
		return nil, fmt.Errorf("perf: canonicalize: %w", err)
	}
	if len(bytes.TrimSpace(rest)) > 0 {
		return nil, fmt.Errorf("perf: canonicalize: trailing data after JSON document")
	}
	return canonical(v)
}

// canonical encodes a decoded JSON value in canonical form.
func canonical(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeJSON decodes the JSON value at the start of raw, keeping number
// literals verbatim, and returns it with the bytes that follow it.
func decodeJSON(raw []byte) (any, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, nil, err
	}
	return v, raw[dec.InputOffset():], nil
}

// CanonicalMarshal marshals v with encoding/json and canonicalizes the
// result.
func CanonicalMarshal(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("perf: marshal: %w", err)
	}
	return Canonicalize(raw)
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(x.String())
	case string:
		return writeCanonicalString(buf, x)
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonicalString(buf, k); err != nil {
				return err
			}
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("perf: canonicalize: unsupported JSON value %T", v)
	}
	return nil
}

// writeCanonicalString emits s as a JSON string without HTML escaping.
func writeCanonicalString(buf *bytes.Buffer, s string) error {
	var tmp bytes.Buffer
	enc := json.NewEncoder(&tmp)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		return err
	}
	buf.Write(bytes.TrimRight(tmp.Bytes(), "\n"))
	return nil
}

// Float is a float64 whose JSON form is pinned: NaN, +Inf and -Inf encode
// as the strings "NaN", "+Inf" and "-Inf"; finite values (including
// negative zero, which keeps its sign) encode as shortest round-trip
// decimals. Both forms parse back losslessly, so canonicalization is
// byte-stable.
type Float float64

// MarshalJSON implements the pinned spelling.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts both the pinned string spellings and plain JSON
// numbers.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = Float(math.NaN())
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		default:
			return fmt.Errorf("perf: invalid float spelling %q", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("perf: invalid float %q: %w", b, err)
	}
	*f = Float(v)
	return nil
}
