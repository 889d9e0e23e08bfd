package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Hash returns the SHA-256 (hex) content hash of the table: the schema's
// attribute names, kinds and roles followed by every cell rendered the way
// WriteCSV renders it. Two tables with identical schemas and identical
// rendered rows hash identically whatever their dictionary order, which
// makes the hash a stable dataset fingerprint for perf packs and result
// caching.
func (t *Table) Hash() (string, error) {
	h := sha256.New()
	for _, a := range t.Schema.Attrs {
		fmt.Fprintf(h, "%s\x1f%d\x1f%d\x1e", a.Name, a.Kind, a.Role)
	}
	h.Write([]byte{'\x1d'})
	if err := WriteCSV(h, t); err != nil {
		return "", fmt.Errorf("dataset: hashing table: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
