package core

import (
	"fmt"
	"math/bits"

	"colt/internal/arch"
)

// Partial-subblock TLB (Talluri & Hill, ASPLOS 1994) — the prior
// approach the paper positions CoLT against in §2.3. Like CoLT-SA, a
// partial-subblock entry holds one base physical page and a valid bit
// per member of an aligned virtual block; unlike CoLT, a translation
// may join an entry only when its physical frame sits at the SAME
// OFFSET within an aligned physical block as its virtual page does
// within the virtual block ("base physical pages [must] be placed in an
// aligned manner within subblock regions"). CoLT drops both the
// physical-alignment and the amount restrictions, which is exactly what
// the paper claims buys its extra coverage — the subblock experiment
// quantifies that claim.

// SubblockFactor is the subblock size in pages (matching CoLT-SA's
// default maximum coalescing of four for a fair comparison).
const SubblockFactor = 4

// sbEntry is one partial-subblock entry: virtual block tag, valid bits,
// and the ALIGNED physical block base.
type sbEntry struct {
	valid    bool
	tag      uint64
	vbits    uint8
	blockPFN arch.PFN // physical base of the aligned subblock
	attr     arch.Attr
	lru      uint64
}

// SubblockTLB is a set-associative partial-subblock TLB. Set selection
// uses the virtual block number, so (like CoLT-SA's shifted indexing)
// all pages of a block probe one set.
type SubblockTLB struct {
	sets    int
	ways    int
	setBits uint
	entries []sbEntry
	tick    uint64
	stats   TLBStats
	// rejected counts fills that met an entry for their virtual block
	// but could not share it because the physical frame was misaligned
	// — the cost of the alignment restriction. A fill counts at most
	// once, however many such entries it meets.
	rejected uint64
}

// NewSubblockTLB builds a partial-subblock TLB with the given geometry.
func NewSubblockTLB(sets, ways int) *SubblockTLB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("core: set count %d must be a power of two", sets))
	}
	if ways <= 0 {
		panic("core: ways must be positive")
	}
	return &SubblockTLB{
		sets:    sets,
		ways:    ways,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		entries: make([]sbEntry, sets*ways),
	}
}

// Stats returns a snapshot of the counters.
func (t *SubblockTLB) Stats() TLBStats { return t.stats }

// Rejected counts alignment-rejected fills.
func (t *SubblockTLB) Rejected() uint64 { return t.rejected }

// ResetStats zeroes the counters.
func (t *SubblockTLB) ResetStats() {
	t.stats = TLBStats{}
	t.rejected = 0
}

func (t *SubblockTLB) index(vpn arch.VPN) (set int, tag uint64, off uint) {
	block := uint64(vpn) / SubblockFactor
	return int(block & uint64(t.sets-1)), block >> t.setBits, uint(vpn) % SubblockFactor
}

// Lookup translates vpn: PFN = aligned block base + virtual offset.
func (t *SubblockTLB) Lookup(vpn arch.VPN) (arch.PFN, bool) {
	t.stats.Lookups++
	set, tag, off := t.index(vpn)
	base := set * t.ways
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == tag && e.vbits&(1<<off) != 0 {
			t.stats.Hits++
			t.tick++
			e.lru = t.tick
			return e.blockPFN + arch.PFN(off), true
		}
	}
	t.stats.Misses++
	return 0, false
}

// Insert fills the translation (vpn -> pfn). If an entry for the block
// already exists with the matching aligned physical base and
// attributes, the valid bit is added; a misaligned frame forces a fresh
// entry whose other valid bits can never be shared (counted in
// Rejected). Returns the evicted block's first VPN for inclusive
// back-invalidation.
func (t *SubblockTLB) Insert(vpn arch.VPN, pfn arch.PFN, attr arch.Attr) (evictedVPN arch.VPN, evicted bool) {
	set, tag, off := t.index(vpn)
	blockPFN := pfn - arch.PFN(off)
	alignedOK := blockPFN%SubblockFactor == 0

	t.tick++
	t.stats.Fills++
	base := set * t.ways
	victim := base
	rejected := false
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == tag {
			if alignedOK && e.blockPFN == blockPFN && e.attr == attr {
				// Partial-subblock sharing: just set the valid bit.
				e.vbits |= 1 << off
				e.lru = t.tick
				t.stats.CoalescedIn++
				return 0, false
			}
			if e.vbits&(1<<off) != 0 {
				// The offset is covered by a stale/conflicting base:
				// replace this entry.
				t.rejected++
				*e = sbEntry{valid: true, tag: tag, vbits: 1 << off, blockPFN: blockPFN, attr: attr, lru: t.tick}
				return 0, false
			}
			rejected = true
		}
		if lessSBLRU(&t.entries[base+i], &t.entries[victim]) {
			victim = base + i
		}
	}
	if rejected {
		t.rejected++
	}
	v := &t.entries[victim]
	if v.valid {
		t.stats.Evictions++
		evictedVPN = arch.VPN((v.tag<<t.setBits | uint64(set)) * SubblockFactor)
		evicted = true
	}
	*v = sbEntry{valid: true, tag: tag, vbits: 1 << off, blockPFN: blockPFN, attr: attr, lru: t.tick}
	return evictedVPN, evicted
}

func lessSBLRU(a, b *sbEntry) bool {
	if a.valid != b.valid {
		return !a.valid
	}
	return a.lru < b.lru
}

// Invalidate drops any entry covering vpn (whole entries, as in the
// original proposal). Returns true if one was removed.
func (t *SubblockTLB) Invalidate(vpn arch.VPN) bool {
	set, tag, off := t.index(vpn)
	base := set * t.ways
	removed := false
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == tag && e.vbits&(1<<off) != 0 {
			e.valid = false
			removed = true
			t.stats.Invalidates++
		}
	}
	return removed
}

// InvalidateAll flushes the TLB.
func (t *SubblockTLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.stats.Invalidates++
}

// Occupied returns the number of valid entries.
func (t *SubblockTLB) Occupied() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}
