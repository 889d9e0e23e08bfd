package eqclass

import (
	"fmt"

	"microdata/internal/dataset"
)

// Histograms holds, per class, the histogram of one dictionary-encoded
// column — the sensitive attribute — in compressed-row form: class c's
// distinct codes are Sens[Off[c]:Off[c+1]], with nonzero counts Hist at
// the same positions summing to the class's size. Entry order within a
// class is first appearance and carries no meaning. It is the one
// per-class sensitive histogram: a row partition's (Partition.Histograms)
// and a frequency set's (package freqset) alike, read by every ℓ-diversity,
// t-closeness and sensitive-count model. The zero value holds none.
type Histograms struct {
	Off, Sens, Hist []uint32
}

// Len returns the number of classes.
func (h *Histograms) Len() int {
	if len(h.Off) == 0 {
		return 0
	}
	return len(h.Off) - 1
}

// Class returns class c's codes and their counts, both empty when h holds
// no histograms. The slices are shared; treat them as read-only.
func (h *Histograms) Class(c int) (sens, hist []uint32) {
	if h.Off == nil {
		return nil, nil
	}
	lo, hi := h.Off[c], h.Off[c+1]
	return h.Sens[lo:hi], h.Hist[lo:hi]
}

// Histograms tallies, per class, the codes of a dictionary-encoded column
// over the class's rows.
func (p *Partition) Histograms(col *dataset.Column) (*Histograms, error) {
	if col.Len() != p.n {
		return nil, fmt.Errorf("eqclass: column has %d values for %d rows", col.Len(), p.n)
	}
	ids := make([]uint32, p.n)
	for i, c := range p.ClassOf {
		ids[i] = uint32(c)
	}
	h := RowHistograms(ids, len(p.Classes), col.Codes(), col.Card())
	return &h, nil
}

// RowHistograms builds the histograms of classes from their rows: row i
// lies in class ids[i] and holds code codes[i], below card.
func RowHistograms(ids []uint32, classes int, codes []uint32, card int) Histograms {
	return merge(ids, classes, nil, codes, card)
}

// Merge builds the histograms of coarser classes, each the union of some
// of h's: h's class i lies in class ids[i]. card bounds the codes.
func (h *Histograms) Merge(ids []uint32, classes, card int) Histograms {
	return merge(ids, classes, h, h.Sens, card)
}

// merge sizes one bucket per class, scatters each item's entries into its
// class's bucket in pooled scratch, merges equal codes bucket by bucket,
// compacting in place, and copies the merged entries out once. An item is
// one of from's classes, or a row holding codes[i] once when from is nil.
func merge(ids []uint32, classes int, from *Histograms, codes []uint32, card int) Histograms {
	off := make([]uint32, classes+1)
	for i, c := range ids {
		if from == nil {
			off[c+1]++
		} else {
			off[c+1] += from.Off[i+1] - from.Off[i]
		}
	}
	for c := 0; c < classes; c++ {
		off[c+1] += off[c]
	}
	n := off[classes]
	buf := getUint32(2*int(n) + classes)
	defer putUint32(buf)
	sens, hist, next := buf[:n], buf[n:2*n], buf[2*n:]
	copy(next, off[:classes])
	for i, c := range ids {
		p := next[c]
		if from == nil {
			sens[p], hist[p] = codes[i], 1
			next[c]++
			continue
		}
		// Ranges hold a few entries: a loop beats two copy calls.
		for r := from.Off[i]; r < from.Off[i+1]; r++ {
			sens[p], hist[p] = codes[r], from.Hist[r]
			p++
		}
		next[c] = p
	}
	// stamp[v] is 1 + the last class holding code v, pos[v] its entry
	// there.
	stamp, pos := make([]uint32, card), make([]uint32, card)
	w := uint32(0)
	for c := 0; c < classes; c++ {
		lo, hi := off[c], off[c+1]
		off[c] = w
		for r := lo; r < hi; r++ {
			v := sens[r]
			if stamp[v] == uint32(c)+1 {
				hist[pos[v]] += hist[r]
				continue
			}
			stamp[v], pos[v] = uint32(c)+1, w
			sens[w], hist[w] = v, hist[r]
			w++
		}
	}
	off[classes] = w
	// The one allocation of the entries, exactly sized (histograms may
	// live long, in cached frequency sets) and not zeroed first.
	return Histograms{Off: off, Sens: append([]uint32(nil), sens[:w]...), Hist: append([]uint32(nil), hist[:w]...)}
}
