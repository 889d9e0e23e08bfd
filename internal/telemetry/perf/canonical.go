// Package perf turns benchmark runs into verifiable artifacts. A run of
// the repository benchmark (benchmark/ --pack) produces a "perf pack": a
// versioned JSON document (schema "microdata/perf-pack") holding
// per-workload metric sample series and an environment fingerprint,
// serialized as canonical JSON (JCS-style sorted keys, no insignificant
// whitespace) and sealed with a SHA-256 self-manifest. Packs from two runs
// are compared with a median/MAD statistical comparator that classifies
// every end-to-end metric as ok, improved or drifted (cmd/benchdiff).
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
	"sort"
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
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("perf: canonicalize: %w", err)
	}
	// Reject trailing garbage after the document.
	if dec.More() {
		return nil, fmt.Errorf("perf: canonicalize: trailing data after JSON document")
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
