package mm

import (
	"errors"
	"fmt"
	"math/bits"

	"colt/internal/arch"
	"colt/internal/pool"
)

// MaxOrder is the number of buddy free lists, matching Linux's
// MAX_ORDER=11: blocks of 2^0 .. 2^10 pages (4 KB .. 4 MB).
const MaxOrder = 11

// HugeOrder is the buddy order of one 2 MB superpage (order 9 = 512
// pages). Buddy blocks are naturally aligned, so an order-9 allocation
// satisfies THP's 2 MB alignment requirement for free.
const HugeOrder = arch.HugePageShift - arch.PageShift

// ErrOutOfMemory is returned when an allocation cannot be satisfied at
// all, and ErrFragmented when enough pages are free but no contiguous
// block of the requested order exists. The distinction drives the
// compaction trigger: compacting helps fragmentation, not true OOM.
var (
	ErrOutOfMemory = errors.New("mm: out of physical memory")
	ErrFragmented  = errors.New("mm: no contiguous block of requested order (memory fragmented)")
)

// Run is a contiguous range of physical frames.
type Run struct {
	Base arch.PFN
	Len  int
}

// End returns one past the last frame of the run.
func (r Run) End() arch.PFN { return r.Base + arch.PFN(r.Len) }

// BuddyStats counts allocator activity.
type BuddyStats struct {
	// Allocs counts blocks handed out: one per AllocBlock and
	// AllocSpecific success, and one per frame of AllocPages, so a bulk
	// allocation counts exactly what as many AllocBlock(0) calls would.
	Allocs uint64
	// Frees counts FreeRange calls (FreeBlock included), not frames:
	// returning a run of frames in one call counts once.
	Frees uint64
	// Splits counts block halvings: each split pushes one upper half
	// onto a lower free list.
	Splits uint64
	// Merges counts buddy merges performed while freeing. Freeing a run
	// whole merges its aligned pieces directly, so it performs fewer
	// merges than freeing the same frames one at a time, although both
	// leave the same free lists.
	Merges uint64
	// AllocFails counts failed allocations: vetoes by the fault hook,
	// out-of-memory and fragmentation failures.
	AllocFails uint64
	// FragFails counts the failures that had enough free memory but no
	// contiguous block of the requested order.
	FragFails uint64
	// RangeFallbck counts AllocRange calls that returned multiple runs.
	RangeFallbck uint64
}

// Buddy is a Linux-style binary buddy allocator over a PhysMem
// (paper §3.2.1, Figures 1-2). Free blocks of 2^k pages are kept on
// order-k free lists; allocation splits larger blocks downward and
// freeing iteratively merges buddy pairs upward, which is the mechanism
// that regenerates large contiguous runs.
type Buddy struct {
	phys *PhysMem

	// freeHead[k] links the first free block of order k. Blocks are
	// intrusively double-linked through next/prev (indexed by
	// block-head PFN), giving deterministic LIFO reuse. A link holds
	// the PFN plus one, so zero means "none" and a zeroed array is an
	// empty list.
	freeHead [MaxOrder]int32
	next     []int32
	prev     []int32
	// orderOf[pfn] is k+1 when pfn heads a free block of order k, else
	// 0.
	orderOf []int8

	freeBlocks [MaxOrder]int
	freePages  uint64
	stats      BuddyStats

	// failAlloc, when set, may veto block allocations before any state
	// changes (the fault-injection plane's memory-pressure hook).
	failAlloc func(order int) error
}

// The link arrays of released allocators, recycled by NewBuddy (see
// package pool).
var (
	linkPool  pool.Slices[int32]
	orderPool pool.Slices[int8]
)

// NewBuddy builds an allocator owning every frame of pm, initially all
// free.
func NewBuddy(pm *PhysMem) *Buddy {
	n := pm.NumFrames()
	b := &Buddy{
		phys:    pm,
		next:    linkPool.Get(n),
		prev:    linkPool.Get(n),
		orderOf: orderPool.Get(n),
	}
	// Seed the free lists by decomposing [0, n) into maximal aligned
	// power-of-two blocks.
	b.insertRange(0, n)
	return b
}

// Release hands the link arrays back to their pools for the next
// allocator of the same size. The allocator is unusable afterwards:
// allocating or freeing panics. Stats stays readable, and a second
// Release does nothing.
func (b *Buddy) Release() {
	if b.orderOf == nil {
		return
	}
	linkPool.Put(b.next)
	linkPool.Put(b.prev)
	orderPool.Put(b.orderOf)
	b.next, b.prev, b.orderOf = nil, nil, nil
}

// insertRange frees the frames [base, base+n) as aligned blocks without
// merge attempts (used only at init; frames must not be on free lists).
func (b *Buddy) insertRange(base arch.PFN, n int) {
	for n > 0 {
		k := maxOrderFor(base, n)
		b.pushFree(base, k)
		base += arch.PFN(1) << k
		n -= 1 << k
	}
}

// maxOrderFor returns the largest order k (< MaxOrder) such that base is
// 2^k-aligned and 2^k <= n.
func maxOrderFor(base arch.PFN, n int) int {
	k := MaxOrder - 1
	if base != 0 {
		if a := bits.TrailingZeros64(uint64(base)); a < k {
			k = a
		}
	}
	for (1 << k) > n {
		k--
	}
	return k
}

// link encodes pfn as a free-list link: the PFN plus one.
func link(pfn arch.PFN) int32 { return int32(pfn) + 1 }

func (b *Buddy) pushFree(pfn arch.PFN, order int) {
	head := b.freeHead[order]
	b.orderOf[pfn] = int8(order + 1)
	b.next[pfn] = head
	b.prev[pfn] = 0
	if head != 0 {
		b.prev[head-1] = link(pfn)
	}
	b.freeHead[order] = link(pfn)
	b.freeBlocks[order]++
	b.freePages += 1 << order
}

func (b *Buddy) removeFree(pfn arch.PFN, order int) {
	if b.orderOf[pfn] != int8(order+1) {
		panic(fmt.Sprintf("mm: removeFree(%d, %d) but block has order %d", pfn, order, b.orderOf[pfn]-1))
	}
	next, prev := b.next[pfn], b.prev[pfn]
	if prev != 0 {
		b.next[prev-1] = next
	} else {
		b.freeHead[order] = next
	}
	if next != 0 {
		b.prev[next-1] = prev
	}
	b.orderOf[pfn] = 0
	b.next[pfn], b.prev[pfn] = 0, 0
	b.freeBlocks[order]--
	b.freePages -= 1 << order
}

// FreePages returns the number of free frames.
func (b *Buddy) FreePages() uint64 { return b.freePages }

// FreeBlocksOfOrder returns how many free blocks of exactly order k
// exist.
func (b *Buddy) FreeBlocksOfOrder(k int) int { return b.freeBlocks[k] }

// LargestFreeOrder returns the highest order with a free block, or -1
// when memory is exhausted.
func (b *Buddy) LargestFreeOrder() int {
	for k := MaxOrder - 1; k >= 0; k-- {
		if b.freeHead[k] != 0 {
			return k
		}
	}
	return -1
}

// Stats returns a snapshot of allocator counters.
func (b *Buddy) Stats() BuddyStats { return b.stats }

// SetAllocFaultHook installs fn to run at the top of every AllocBlock
// call (including those made by AllocRange) and before every frame of
// AllocPages: a non-nil return fails the allocation with that error
// before any allocator state changes, simulating memory pressure. nil
// uninstalls. The allocator stays fault-agnostic — callers wire this to
// the fault plane.
func (b *Buddy) SetAllocFaultHook(fn func(order int) error) { b.failAlloc = fn }

// vetoed runs the fault hook for one allocation of the given order,
// counting a veto as a failed allocation.
func (b *Buddy) vetoed(order int) error {
	if b.failAlloc == nil {
		return nil
	}
	err := b.failAlloc(order)
	if err != nil {
		b.stats.AllocFails++
	}
	return err
}

// AllocBlock allocates one naturally-aligned block of 2^order frames,
// splitting a larger block if needed (Figure 2's walk up the free
// lists). The returned block's frames are marked allocated; the caller
// assigns ownership.
func (b *Buddy) AllocBlock(order int) (arch.PFN, error) {
	if order < 0 || order >= MaxOrder {
		return 0, fmt.Errorf("mm: invalid order %d", order)
	}
	if b.orderOf == nil {
		panic("mm: allocation from a released Buddy")
	}
	if err := b.vetoed(order); err != nil {
		return 0, err
	}
	k := order
	for k < MaxOrder && b.freeHead[k] == 0 {
		k++
	}
	if k == MaxOrder {
		b.stats.AllocFails++
		if b.freePages >= uint64(1)<<order {
			b.stats.FragFails++
			return 0, ErrFragmented
		}
		return 0, ErrOutOfMemory
	}
	pfn := arch.PFN(b.freeHead[k] - 1)
	b.removeFree(pfn, k)
	// Iteratively halve the block, returning upper halves to their
	// free lists, until we hold a block of the requested order.
	for k > order {
		k--
		b.pushFree(pfn+arch.PFN(1)<<k, k)
		b.stats.Splits++
	}
	b.markAllocated(pfn, 1<<order)
	b.stats.Allocs++
	return pfn, nil
}

// AllocPages fills out with frames exactly as len(out) successive
// AllocBlock(0) calls would, in one call: the same frames in the same
// order, the same free lists left behind, and the same Allocs, Splits
// and AllocFails. It is the bulk path of a run of demand faults.
//
// Each frame pops the order-0 free list when it is not empty (LIFO, as
// AllocBlock does). Otherwise the smallest free block, of order k,
// drains front to back: AllocBlock(0) would split it and the next
// allocations would take its halves in address order, because every
// list below k is empty. After t frames of it, those splits leave
// exactly the aligned decomposition of the untaken tail, at most one
// block per order and each alone on its list, so pushing the tail in
// one insertRange leaves the same lists; they cost k + Σ_{j=1}^{t-1}
// trailing_zeros(j) = k + (t-1) - popcount(t-1) splits.
//
// The fault hook runs before every frame, where AllocBlock would run
// it. On a veto AllocPages returns the frames taken so far with the
// hook's error; when memory runs out it counts one failure and returns
// them with ErrOutOfMemory. n is how many leading entries of out hold
// frames.
func (b *Buddy) AllocPages(out []arch.PFN) (n int, err error) {
	if b.orderOf == nil {
		panic("mm: allocation from a released Buddy")
	}
	for n < len(out) {
		if err := b.vetoed(0); err != nil {
			return n, err
		}
		if h := b.freeHead[0]; h != 0 {
			pfn := arch.PFN(h - 1)
			b.removeFree(pfn, 0)
			b.markAllocated(pfn, 1)
			b.stats.Allocs++
			out[n] = pfn
			n++
			continue
		}
		k := 1
		for k < MaxOrder && b.freeHead[k] == 0 {
			k++
		}
		if k == MaxOrder {
			b.stats.AllocFails++
			return n, ErrOutOfMemory
		}
		base := arch.PFN(b.freeHead[k] - 1)
		b.removeFree(base, k)
		size := 1 << k
		// The first frame's hook has run; each further frame runs its
		// own before it is taken.
		taken := 1
		for taken < size && n+taken < len(out) {
			if err = b.vetoed(0); err != nil {
				break
			}
			taken++
		}
		b.markAllocated(base, taken)
		for j := 0; j < taken; j++ {
			out[n+j] = base + arch.PFN(j)
		}
		n += taken
		b.stats.Allocs += uint64(taken)
		b.stats.Splits += uint64(k + taken - 1 - bits.OnesCount(uint(taken-1)))
		if taken < size {
			b.insertRange(base+arch.PFN(taken), size-taken)
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// AllocRange allocates n contiguous frames when possible: it takes the
// smallest block of at least n frames and frees the tail back. When no
// single block is large enough it falls back to multiple smaller runs
// (greedy largest-first), mirroring how the kernel satisfies a large
// malloc when contiguity has run out. Returns ErrOutOfMemory (with
// nothing allocated) if fewer than n frames are free.
func (b *Buddy) AllocRange(n int) ([]Run, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mm: invalid range length %d", n)
	}
	if uint64(n) > b.freePages {
		b.stats.AllocFails++
		return nil, ErrOutOfMemory
	}
	if r, ok := b.allocSingleRun(n); ok {
		return []Run{r}, nil
	}
	// Fragmented: gather multiple runs, largest blocks first.
	b.stats.RangeFallbck++
	var runs []Run
	remaining := n
	for remaining > 0 {
		k := b.LargestFreeOrder()
		if k < 0 {
			// Cannot happen: freePages >= n was checked, but guard
			// against bookkeeping bugs by rolling back.
			for _, r := range runs {
				b.FreeRange(r.Base, r.Len)
			}
			b.stats.AllocFails++
			return nil, ErrOutOfMemory
		}
		for k > 0 && (1<<(k-1)) >= remaining {
			k--
		}
		take := 1 << k
		if take > remaining {
			take = remaining
		}
		pfn, err := b.AllocBlock(k)
		if err != nil {
			for _, r := range runs {
				b.FreeRange(r.Base, r.Len)
			}
			return nil, err
		}
		if take < 1<<k {
			b.freeFramesNoStats(pfn+arch.PFN(take), (1<<k)-take)
		}
		runs = append(runs, Run{Base: pfn, Len: take})
		remaining -= take
	}
	return runs, nil
}

// allocSingleRun tries to carve exactly n contiguous frames out of one
// block, freeing the unused tail.
func (b *Buddy) allocSingleRun(n int) (Run, bool) {
	order := orderForCount(n)
	if order >= MaxOrder {
		return Run{}, false
	}
	pfn, err := b.AllocBlock(order)
	if err != nil {
		return Run{}, false
	}
	if tail := (1 << order) - n; tail > 0 {
		b.freeFramesNoStats(pfn+arch.PFN(n), tail)
	}
	return Run{Base: pfn, Len: n}, true
}

// orderForCount returns ceil(log2(n)): the smallest order whose block
// covers n pages (paper §3.2.1).
func orderForCount(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// AllocSpecific allocates exactly the given free frame, splitting
// whatever free block currently contains it. It is the primitive the
// compaction daemon uses to claim migration targets taken from the top
// of memory. Returns false if the frame is already allocated.
func (b *Buddy) AllocSpecific(pfn arch.PFN) bool {
	if !b.phys.Valid(pfn) || b.phys.Allocated(pfn) {
		return false
	}
	// Find the free block containing pfn: its head is pfn rounded down
	// to the block's alignment for some order.
	for k := 0; k < MaxOrder; k++ {
		head := pfn &^ (arch.PFN(1)<<k - 1)
		if b.orderOf[head] == int8(k+1) {
			b.removeFree(head, k)
			// Split off everything except pfn itself, re-freeing the
			// fragments as maximal aligned blocks.
			if before := int(pfn - head); before > 0 {
				b.insertRange(head, before)
			}
			if after := int(head + arch.PFN(1)<<k - pfn - 1); after > 0 {
				b.insertRange(pfn+1, after)
			}
			b.markAllocated(pfn, 1)
			b.stats.Allocs++
			return true
		}
	}
	return false
}

// FreeBlock frees an aligned block previously returned by AllocBlock.
func (b *Buddy) FreeBlock(pfn arch.PFN, order int) {
	b.FreeRange(pfn, 1<<order)
}

// FreeRange frees the frames [pfn, pfn+n), which need not be aligned or
// correspond to a single prior allocation (THP splitting and partial
// munmap free arbitrary subranges). Freed frames are merged with their
// buddies iteratively, the process that "leads to large amounts of
// contiguity" (paper §3.2.1).
//
// It leaves the same free lists as freeing the frames one at a time in
// ascending order. A block that a single free would push and a later
// one merge away is unlinked from a doubly-linked list, which restores
// the list as if it had never been pushed; the blocks that survive are
// pushed in the order of their highest freed frame either way.
func (b *Buddy) FreeRange(pfn arch.PFN, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("mm: FreeRange length %d", n))
	}
	for p := pfn; p < pfn+arch.PFN(n); p++ {
		if !b.phys.Allocated(p) {
			panic(fmt.Sprintf("mm: double free of frame %d", p))
		}
		b.phys.clearFrame(p)
	}
	b.stats.Frees++
	b.freeFrames(pfn, n)
}

// freeFramesNoStats returns still-marked-allocated frames to the free
// lists after clearing their metadata; used for tails of oversized
// blocks.
func (b *Buddy) freeFramesNoStats(pfn arch.PFN, n int) {
	for p := pfn; p < pfn+arch.PFN(n); p++ {
		b.phys.clearFrame(p)
	}
	b.freeFrames(pfn, n)
}

// freeFrames inserts [pfn, pfn+n) into the free lists with buddy
// merging. Frames must already be marked not-allocated.
func (b *Buddy) freeFrames(pfn arch.PFN, n int) {
	base := pfn
	remaining := n
	for remaining > 0 {
		k := maxOrderFor(base, remaining)
		b.freeOne(base, k)
		base += arch.PFN(1) << k
		remaining -= 1 << k
	}
}

// freeOne frees a single aligned block with iterative buddy merging.
func (b *Buddy) freeOne(pfn arch.PFN, order int) {
	for order < MaxOrder-1 {
		buddy := pfn ^ (arch.PFN(1) << order)
		if !b.phys.Valid(buddy) || b.orderOf[buddy] != int8(order+1) {
			break
		}
		b.removeFree(buddy, order)
		if buddy < pfn {
			pfn = buddy
		}
		order++
		b.stats.Merges++
	}
	b.pushFree(pfn, order)
}

func (b *Buddy) markAllocated(pfn arch.PFN, n int) {
	for p := pfn; p < pfn+arch.PFN(n); p++ {
		b.phys.setAllocated(p)
	}
}

// FragmentationIndex computes Linux's fragmentation index for the given
// order in [0, 1]: values near 1 mean failures at that order are due to
// fragmentation (compaction will help); near 0 means memory is simply
// low. Returns 0 when a block of the order is already free.
func (b *Buddy) FragmentationIndex(order int) float64 {
	for k := order; k < MaxOrder; k++ {
		if b.freeBlocks[k] > 0 {
			return 0
		}
	}
	var totalBlocks uint64
	for k := 0; k < MaxOrder; k++ {
		totalBlocks += uint64(b.freeBlocks[k])
	}
	if totalBlocks == 0 {
		return 0 // true OOM, not fragmentation
	}
	requested := uint64(1) << order
	return 1 - (1+float64(b.freePages)/float64(requested))/(1+float64(totalBlocks))
}

// Audit validates the free-list structure against frame metadata and
// returns EVERY inconsistency found, one line each: free-list blocks
// must match their recorded order, be naturally aligned, stay inside
// memory, never overlap, and never cover allocated frames; the
// per-order block counts and the free-page total must match the
// lists; and every frame must be either allocated or on a free list.
// An empty slice means the allocator is consistent.
func (b *Buddy) Audit() []string {
	var issues []string
	seen := make(map[arch.PFN]bool)
	var pages uint64
	for k := 0; k < MaxOrder; k++ {
		count := 0
		for p := b.freeHead[k]; p != 0; p = b.next[p-1] {
			count++
			head := arch.PFN(p - 1)
			if b.orderOf[head] != int8(k+1) {
				issues = append(issues, fmt.Sprintf("block %d on list %d has orderOf %d", head, k, b.orderOf[head]-1))
			}
			if uint64(head)%(1<<k) != 0 {
				issues = append(issues, fmt.Sprintf("block %d on list %d is misaligned", head, k))
			}
			for i := 0; i < 1<<k; i++ {
				f := head + arch.PFN(i)
				if !b.phys.Valid(f) {
					issues = append(issues, fmt.Sprintf("block %d order %d exceeds memory", head, k))
					break
				}
				if seen[f] {
					issues = append(issues, fmt.Sprintf("frame %d on two free blocks", f))
				}
				seen[f] = true
				if b.phys.Allocated(f) {
					issues = append(issues, fmt.Sprintf("frame %d free but marked allocated", f))
				}
			}
			pages += 1 << k
		}
		if count != b.freeBlocks[k] {
			issues = append(issues, fmt.Sprintf("order %d: counted %d blocks, recorded %d", k, count, b.freeBlocks[k]))
		}
	}
	if pages != b.freePages {
		issues = append(issues, fmt.Sprintf("counted %d free pages, recorded %d", pages, b.freePages))
	}
	for i := 0; i < b.phys.NumFrames(); i++ {
		pfn := arch.PFN(i)
		if !b.phys.Allocated(pfn) && !seen[pfn] {
			issues = append(issues, fmt.Sprintf("frame %d neither allocated nor on a free list", pfn))
		}
	}
	return issues
}

// CheckInvariants validates the free-list structure against frame
// metadata and returns an error describing the first inconsistency
// found (nil when consistent). Audit returns the full list.
func (b *Buddy) CheckInvariants() error {
	if issues := b.Audit(); len(issues) > 0 {
		return errors.New(issues[0])
	}
	return nil
}
