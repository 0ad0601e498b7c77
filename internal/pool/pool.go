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
// the pool never changes what its user computes; GetUncleared skips the
// clear for a caller that writes every element before reading it.
// Lengths that are not a power of two bypass the pool. The zero value
// is ready to use; it is safe for concurrent use and must not be
// copied.
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
	if s := p.pooled(n); s != nil {
		clear(s)
		return s
	}
	return make([]T, n)
}

// GetUncleared returns a slice of n elements, reusing a pooled one when
// there is one, without clearing it: a pooled slice holds whatever its
// last user left. The caller must write each element before reading
// it.
func (p *Slices[T]) GetUncleared(n int) []T {
	if s := p.pooled(n); s != nil {
		return s
	}
	return make([]T, n)
}

// pooled returns a pooled slice of n elements, or nil when there is
// none.
func (p *Slices[T]) pooled(n int) []T {
	if sp := p.sized(n); sp != nil {
		if s, _ := sp.Get().(*[]T); s != nil {
			return *s
		}
	}
	return nil
}

// Put hands s back for a later Get of its length. The caller must not
// touch s afterwards.
func (p *Slices[T]) Put(s []T) {
	if sp := p.sized(len(s)); sp != nil {
		sp.Put(&s)
	}
}
