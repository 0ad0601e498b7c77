// Package pool recycles the large per-job arrays of the simulator
// between jobs. Every simulation job builds the same machine from
// scratch: the cache levels' metadata lanes, the physical-memory frame
// arrays and the buddy allocator's links are megabytes that a job fills
// and drops. A job hands its arrays back when it finishes, and the next
// job of the same size takes them and pays only a clear.
package pool

import (
	"math/bits"
	"sync"
)

// Slices pools slices of T by length: bySize[k] holds slices of 1<<k
// elements. Get clears what it hands out, so whether a slice came from
// the pool never changes what its user computes. Lengths that are not
// a power of two bypass the pool. The zero value is ready to use; it is
// safe for concurrent use and must not be copied.
type Slices[T any] struct {
	bySize [bits.UintSize]sync.Pool
}

// sized returns the pool of n-element slices, or nil when n is not a
// positive power of two.
func (p *Slices[T]) sized(n int) *sync.Pool {
	if n <= 0 || n&(n-1) != 0 {
		return nil
	}
	return &p.bySize[bits.TrailingZeros(uint(n))]
}

// Get returns a zeroed slice of n elements, reusing a pooled one when
// there is one.
func (p *Slices[T]) Get(n int) []T {
	if sp := p.sized(n); sp != nil {
		if s, _ := sp.Get().(*[]T); s != nil {
			clear(*s)
			return *s
		}
	}
	return make([]T, n)
}

// Put hands s back for a later Get of its length. The caller must not
// touch s afterwards.
func (p *Slices[T]) Put(s []T) {
	if sp := p.sized(len(s)); sp != nil {
		sp.Put(&s)
	}
}
