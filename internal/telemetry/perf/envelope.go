package perf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Document is one pack kind as the envelope sees it. Every sealed
// artifact, perf packs here and result packs in package resultpack alike,
// is one JSON object with top-level "schema", "version", "env" and
// "manifest" fields beside its payload, written as canonical JSON plus one
// trailing newline. The functions of this file are the only code that
// seals, writes, reads or verifies a pack of either kind; a kind supplies
// its schema id and version and the canonical order of its sections.
type Document interface {
	// Kind returns the schema id and version the type reads and writes.
	Kind() (schema string, version int)
	// SortSections puts the payload into its canonical order.
	SortSections()
	// ManifestField returns the address of the document's seal, which is
	// nil until the document is sealed.
	ManifestField() **Manifest
}

// Manifest is a pack's integrity seal: the digest is the SHA-256 of the
// canonical JSON encoding of the pack with the manifest field absent.
type Manifest struct {
	Algorithm string `json:"algorithm"`
	Digest    string `json:"digest"`
}

// Seal sorts d into canonical order, computes the manifest over the
// canonical encoding of d without its manifest, and installs it.
func Seal(d Document) error {
	d.SortSections()
	m := d.ManifestField()
	*m = nil
	canon, err := CanonicalMarshal(d)
	if err != nil {
		return err
	}
	*m = &Manifest{Algorithm: "sha256", Digest: Digest(canon)}
	return nil
}

// Digest is the hex SHA-256 of raw: the manifest digest of a canonical
// encoding, and the fingerprint result packs record for input files.
func Digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// WriteCanonical writes d as canonical JSON followed by a trailing newline
// (the one concession to text tooling; the newline is not covered by the
// digest). A document without a manifest is sealed first.
func WriteCanonical(w io.Writer, d Document) error {
	if *d.ManifestField() == nil {
		if err := Seal(d); err != nil {
			return err
		}
	}
	canon, err := CanonicalMarshal(d)
	if err != nil {
		return err
	}
	_, err = w.Write(append(canon, '\n'))
	return err
}

// WriteFile writes d with WriteCanonical to path ("-" for stdout).
func WriteFile(path string, d Document) error {
	return WriteOut(path, func(w io.Writer) error { return WriteCanonical(w, d) })
}

// WriteOut streams write to path, or to stdout when path is "-": the one
// artifact writer of the CLIs.
func WriteOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a sealed document of kind T. Malformed JSON and a schema or
// version other than T's are ExitInvalid errors; what VerifyRaw rejects
// is an ExitVerification error.
func Read[T any, P interface {
	*T
	Document
}](raw []byte) (*T, error) {
	obj, err := decodeSealed(raw)
	if err != nil {
		return nil, err
	}
	var v T
	schema, version := P(&v).Kind()
	if got, _ := obj["schema"].(string); got != schema {
		return nil, Invalidf("pack: not a %s document (schema %q)", schema, got)
	}
	if got, _ := obj["version"].(json.Number); string(got) != strconv.Itoa(version) {
		return nil, Invalidf("pack: unsupported %s version %q (reader supports %d)", schema, got, version)
	}
	if err := verify(obj); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("pack: parse %s: %w", schema, err))
	}
	return &v, nil
}

// Load reads path and decodes it with Read.
func Load[T any, P interface {
	*T
	Document
}](path string) (*T, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, Exit(ExitInvalid, err)
	}
	v, err := Read[T, P](raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// VerifyRaw checks the self-manifest of a serialized pack of any kind.
// Any edit after sealing, a single timing digit or a byte appended after
// the document, fails with an ExitVerification error, and so does a pack
// without a manifest: unsealed artifacts carry no integrity claim.
func VerifyRaw(raw []byte) error {
	obj, err := decodeSealed(raw)
	if err != nil {
		return err
	}
	return verify(obj)
}

// VerifyFile reads path and checks its self-manifest.
func VerifyFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Exit(ExitInvalid, err)
	}
	if err := VerifyRaw(raw); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// decodeSealed decodes a serialized pack into its JSON object. Malformed
// JSON is ExitInvalid. A sealed pack ends at its closing brace plus at
// most one newline, so anything after that is an edit after sealing.
func decodeSealed(raw []byte) (map[string]any, error) {
	v, rest, err := decodeJSON(raw)
	if err != nil {
		return nil, Exit(ExitInvalid, fmt.Errorf("pack: %w", err))
	}
	obj, ok := v.(map[string]any)
	if !ok {
		return nil, Invalidf("pack: document is not a JSON object")
	}
	if len(rest) > 0 && string(rest) != "\n" {
		return nil, Exit(ExitVerification, fmt.Errorf("pack: %d bytes of data after the sealed document", len(rest)))
	}
	return obj, nil
}

// verify checks a decoded document's self-manifest: the document without
// its manifest field, canonicalized, must hash to the manifest digest. It
// removes the manifest from obj.
func verify(obj map[string]any) error {
	m, ok := obj["manifest"].(map[string]any)
	if !ok {
		return Exit(ExitVerification, errors.New("pack: document has no manifest"))
	}
	algo, _ := m["algorithm"].(string)
	want, _ := m["digest"].(string)
	if algo != "sha256" || want == "" {
		return Exit(ExitVerification, fmt.Errorf("pack: unsupported manifest algorithm %q", algo))
	}
	delete(obj, "manifest")
	canon, err := canonical(obj)
	if err != nil {
		return err
	}
	if got := Digest(canon); got != want {
		return Exit(ExitVerification, fmt.Errorf("pack: manifest digest mismatch: document hashes to %s, manifest claims %s", got, want))
	}
	return nil
}
