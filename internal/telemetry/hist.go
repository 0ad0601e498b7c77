package telemetry

import "math/bits"

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

// Mean returns the average observed value, or 0 with no samples.
func (h *Hist) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
