// Package mm implements the OS memory-management substrate whose
// behaviour the CoLT paper characterizes in §3: a Linux-style binary
// buddy allocator, a memory-compaction daemon, and transparent hugepage
// (THP) support. Together these are the mechanisms that "naturally
// assign contiguous physical pages to contiguous virtual pages" and that
// CoLT's coalescing hardware exploits.
package mm

import (
	"fmt"
	"math"
	"math/bits"

	"colt/internal/arch"
	"colt/internal/pool"
)

// KernelPID identifies kernel-owned (pinned, unmovable) frames such as
// page-table pages.
const KernelPID = 0

// PageOwner records which process virtual page a frame currently backs,
// so the compaction daemon can rehome the mapping when it migrates the
// frame.
type PageOwner struct {
	PID int
	VPN arch.VPN
}

// Frame is a snapshot of one physical frame's metadata, the
// simulator's equivalent of Linux's struct page.
type Frame struct {
	Allocated bool
	// Movable marks frames the compaction daemon may migrate. User
	// pages are movable; kernel and page-table pages are not
	// (paper §3.2.2).
	Movable bool
	Owner   PageOwner
}

// PhysMem models the machine's physical memory. Frame state is stored
// as two bitmaps, allocated and movable, where frame pfn is bit pfn&63
// of word pfn>>6, beside an owner array: compaction's scanners then
// step over 64 frames per word. Only the buddy allocator sets and
// clears the allocated bit.
type PhysMem struct {
	allocated []uint64
	movable   []uint64
	owners    []PageOwner
}

// The frame arrays of finished systems, recycled by NewPhysMem (see
// package pool).
var (
	wordPool  pool.Slices[uint64]
	ownerPool pool.Slices[PageOwner]
)

// NewPhysMem creates a physical memory with n frames, all free. n is
// bounded by the buddy allocator's int32 links.
func NewPhysMem(n int) *PhysMem {
	if n <= 0 {
		panic("mm: physical memory must have at least one frame")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("mm: %d frames exceed the %d-frame limit", n, math.MaxInt32))
	}
	words := (n + 63) / 64
	return &PhysMem{
		allocated: wordPool.Get(words),
		movable:   wordPool.Get(words),
		owners:    ownerPool.Get(n),
	}
}

// Release hands the frame arrays back to their pools for the next
// memory of the same size. The memory is unusable afterwards: any
// frame access panics. A second Release does nothing.
func (pm *PhysMem) Release() {
	if pm.owners == nil {
		return
	}
	wordPool.Put(pm.allocated)
	wordPool.Put(pm.movable)
	ownerPool.Put(pm.owners)
	pm.allocated, pm.movable, pm.owners = nil, nil, nil
}

// NumFrames returns the total number of frames.
func (pm *PhysMem) NumFrames() int { return len(pm.owners) }

// Bytes returns the physical memory size in bytes.
func (pm *PhysMem) Bytes() uint64 { return uint64(len(pm.owners)) * arch.PageSize }

// Frame returns a snapshot of the metadata for pfn.
func (pm *PhysMem) Frame(pfn arch.PFN) Frame {
	return Frame{Allocated: pm.Allocated(pfn), Movable: pm.Movable(pfn), Owner: pm.owners[pfn]}
}

// Allocated reports whether pfn is allocated.
func (pm *PhysMem) Allocated(pfn arch.PFN) bool { return bitSet(pm.allocated, pfn) }

// Movable reports whether the compaction daemon may migrate pfn.
func (pm *PhysMem) Movable(pfn arch.PFN) bool { return bitSet(pm.movable, pfn) }

// Owner returns the process page pfn backs.
func (pm *PhysMem) Owner(pfn arch.PFN) PageOwner { return pm.owners[pfn] }

// Valid reports whether pfn addresses a frame inside this memory.
func (pm *PhysMem) Valid(pfn arch.PFN) bool {
	return uint64(pfn) < uint64(len(pm.owners))
}

// SetOwner marks a frame's owner and movability in one step.
func (pm *PhysMem) SetOwner(pfn arch.PFN, owner PageOwner, movable bool) {
	pm.owners[pfn] = owner
	if movable {
		pm.movable[pfn>>6] |= bitOf(pfn)
	} else {
		pm.movable[pfn>>6] &^= bitOf(pfn)
	}
}

// SetMovable marks pfn movable, keeping its owner (a split superpage's
// frames become migratable again).
func (pm *PhysMem) SetMovable(pfn arch.PFN) { pm.movable[pfn>>6] |= bitOf(pfn) }

// markAllocated marks the frames [pfn, pfn+n) allocated a word at a
// time, panicking on the lowest frame that already is.
func (pm *PhysMem) markAllocated(pfn arch.PFN, n int) {
	for p, end := pfn, pfn+arch.PFN(n); p < end; {
		w, mask, next := wordSpan(p, end)
		if taken := pm.allocated[w] & mask; taken != 0 {
			panic(fmt.Sprintf("mm: frame %d allocated twice", lowestFrame(w, taken)))
		}
		pm.allocated[w] |= mask
		p = next
	}
}

// requireAllocated panics on the lowest frame of [pfn, pfn+n) that is
// not allocated: freeing it would be a double free.
func (pm *PhysMem) requireAllocated(pfn arch.PFN, n int) {
	for p, end := pfn, pfn+arch.PFN(n); p < end; {
		w, mask, next := wordSpan(p, end)
		if free := mask &^ pm.allocated[w]; free != 0 {
			panic(fmt.Sprintf("mm: double free of frame %d", lowestFrame(w, free)))
		}
		p = next
	}
}

// clearFrames returns the frames [pfn, pfn+n) to the free state: not
// allocated, not movable, no owner.
func (pm *PhysMem) clearFrames(pfn arch.PFN, n int) {
	for p, end := pfn, pfn+arch.PFN(n); p < end; {
		w, mask, next := wordSpan(p, end)
		pm.allocated[w] &^= mask
		pm.movable[w] &^= mask
		p = next
	}
	clear(pm.owners[pfn : pfn+arch.PFN(n)])
}

// wordSpan returns the bitmap word holding frame p, the mask of the
// frames [p, end) within that word, and the first frame past them.
func wordSpan(p, end arch.PFN) (w int, mask uint64, next arch.PFN) {
	next = min(end, (p|63)+1)
	return int(p >> 6), ^uint64(0) >> (64 - (next - p)) << (p & 63), next
}

// lowestFrame returns the frame of the lowest set bit of set, a mask
// within word w.
func lowestFrame(w int, set uint64) arch.PFN {
	return arch.PFN(w)<<6 | arch.PFN(bits.TrailingZeros64(set))
}

// AllocatedFrames counts currently allocated frames.
func (pm *PhysMem) AllocatedFrames() int {
	n := 0
	for _, w := range pm.allocated {
		n += bits.OnesCount64(w)
	}
	return n
}

// String summarizes occupancy.
func (pm *PhysMem) String() string {
	return fmt.Sprintf("PhysMem{%d frames, %d allocated}", pm.NumFrames(), pm.AllocatedFrames())
}

func bitOf(pfn arch.PFN) uint64 { return 1 << (pfn & 63) }

func bitSet(bm []uint64, pfn arch.PFN) bool { return bm[pfn>>6]&bitOf(pfn) != 0 }
