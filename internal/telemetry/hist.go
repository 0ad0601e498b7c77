package telemetry

import (
	"encoding/json"
	"math/bits"
)

// HistBuckets is the fixed bucket count of a log2 histogram: bucket 0
// holds v == 0 and bucket i (1..63) holds values with bit length i,
// i.e. v in [2^(i-1), 2^i). 64-bit values always fit: bits.Len64
// never exceeds 64, and the top bucket absorbs the clamp.
const HistBuckets = 65

// Hist is a fixed-bucket log2 histogram. Observing is allocation-free
// and a nil *Hist is a valid disabled histogram, so hot paths can
// observe unconditionally. The zero value is ready to use.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [HistBuckets]uint64
}

// Observe adds one sample. Nil-safe; never allocates.
func (h *Hist) Observe(v uint64) {
	if h == nil {
		return
	}
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	h.Buckets[bits.Len64(v)]++
}

// Merge folds other into h. Nil-safe on both sides.
func (h *Hist) Merge(other *Hist) {
	if h == nil || other == nil {
		return
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Snapshot returns a copy of h for embedding in a report, or nil for a
// nil or empty histogram, so an untouched distribution serializes as
// absent rather than as zero noise.
func (h *Hist) Snapshot() *Hist {
	if h == nil || h.Count == 0 {
		return nil
	}
	c := *h
	return &c
}

// MarshalJSON encodes the histogram with its trailing zero buckets
// trimmed, so small distributions stay small on disk. All counts are
// integers, so the encoding is exactly reproducible and golden-safe.
// The keys come out sorted, which a metrics report relies on.
func (h Hist) MarshalJSON() ([]byte, error) {
	n := len(h.Buckets)
	for n > 0 && h.Buckets[n-1] == 0 {
		n--
	}
	return json.Marshal(struct {
		Buckets []uint64 `json:"buckets,omitempty"`
		Count   uint64   `json:"count"`
		Max     uint64   `json:"max"`
		Sum     uint64   `json:"sum"`
	}{h.Buckets[:n], h.Count, h.Max, h.Sum})
}
