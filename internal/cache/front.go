package cache

import "colt/internal/arch"

// This file implements the shared part of the split cache hierarchy
// the experiment engine's per-reference loop uses (one Front per job,
// advanced once per reference). Every TLB variant translates the same
// reference stream against the same page table, so the physical
// data-access stream entering L1 — and therefore the entire L1 and L2
// state evolution — is identical across variants; the Front runs that
// L1/L2 pair once per reference and records the requests L2 sends to
// the LLC.
//
// Only the LLC can diverge, because the page walker's PTE fetches
// enter the hierarchy there (§4.1.1) and each variant walks at
// different times. Yet an LRU set's state depends only on the accesses
// that map to it, and until some variant's walk touches a set, every
// variant's accesses to it are the front's recorded requests in the
// same order. So the Front also keeps one shared LLC for the sets no
// walk has touched, and applies each recorded request there once. A
// walker's first fetch into a set forks it: the shared set is copied
// into every variant's LLC, and from then on the front's requests to
// that set run on every variant's copy. Each variant's LLC state and
// demand latencies are exactly those of a private LLC fed the whole
// recording (DESIGN.md §10). A variant's LLC is therefore read only in
// forked sets, each written whole by its fork first, so it takes its
// lanes from the pools without the clear.

// LLCEvent is one L2→LLC request captured by a Front: a demand fill
// (Write false) or an eviction writeback (Write true).
type LLCEvent struct {
	Addr  arch.PAddr
	Write bool
}

// recorder is the terminal Level under the front's L2: it captures
// each request instead of servicing it, contributing zero latency (the
// LLC supplies the latency when the request is applied).
type recorder struct{ events []LLCEvent }

func (r *recorder) Access(addr arch.PAddr, write bool) int {
	r.events = append(r.events, LLCEvent{Addr: addr, Write: write})
	return 0
}

// Front is the variant-independent L1+L2 pair plus the shared LLC. It
// is not safe for concurrent use; each job owns one.
type Front struct {
	L1, L2 *Cache
	rec    recorder

	// llc holds every set no variant's walk has touched; forked has
	// bit s set once set s lives in the variants' LLCs instead.
	llc      *Cache
	forked   []uint64
	variants []*Hierarchy
}

// NewFront builds the paper-configured L1 and L2 over a recording
// terminal, and the shared LLC.
func NewFront() *Front {
	f := &Front{}
	f.L2 = New(l2Config(), &f.rec)
	f.L1 = New(l1Config(), f.L2)
	f.llc = New(llcConfig(), &Memory{Latency: memLatency})
	f.forked = make([]uint64, (f.llc.sets+63)/64)
	return f
}

// Release returns the lanes of the front's levels, the shared LLC and
// every variant's LLC to the pools (see (*Cache).Release); the front
// and its variants are unusable afterwards.
func (f *Front) Release() {
	f.L1.Release()
	f.L2.Release()
	f.llc.Release()
	for _, h := range f.variants {
		h.Release()
	}
}

// NewVariant builds one TLB variant's hierarchy under this front,
// before the front's first Access: an LLC of the paper's geometry over
// its own memory, with no L1 or L2 (the front runs those). Its walk
// fetches fork the set they touch (see the file comment), and Access
// reports its per-reference latency in the slot of lats matching its
// creation order. Its LLC holds only the forked sets, so
// h.LLC.Stats() and h.Mem.Accesses() count only the traffic to them.
// The LLC's lanes come from the pools uncleared: a fork writes a set's
// tag words and order word before anything reads that set. So
// NewVariant panics once a set has forked, which the new LLC would have
// missed.
func (f *Front) NewVariant() *Hierarchy {
	for _, w := range f.forked {
		if w != 0 {
			panic("cache: NewVariant after a walk forked a set")
		}
	}
	mem := &Memory{Latency: memLatency}
	h := &Hierarchy{LLC: newCache(llcConfig(), mem, false), Mem: mem, front: f}
	f.variants = append(f.variants, h)
	return h
}

// isForked reports whether set s has left the shared LLC.
func (f *Front) isForked(s int) bool { return f.forked[s>>6]&(1<<(s&63)) != 0 }

// fork moves set s out of the shared LLC, if it is still there, by
// copying it into every variant's LLC.
func (f *Front) fork(s int) {
	if f.isForked(s) {
		return
	}
	f.forked[s>>6] |= 1 << (s & 63)
	for _, h := range f.variants {
		h.LLC.copySet(f.llc, s)
	}
}

// DataAccess services one demand reference through the shared L1/L2
// and returns the latency accumulated down to L2, the LLC-bound
// requests the access generated (valid until the next call), and
// whether the first of them is the demand fill — the only LLC access
// on the reference's critical path. The demand fill, when present, is
// always first: L1's miss path fills from L2 before writing back its
// victim, and L2's miss path fills from the LLC before writing back
// its own, so writeback-induced traffic (which targets evicted lines,
// never the demand line, and whose latency the levels discard) sorts
// strictly after it. DataAccess does not touch any LLC.
func (f *Front) DataAccess(addr arch.PAddr, write bool) (lat int, events []LLCEvent, demandMiss bool) {
	f.rec.events = f.rec.events[:0]
	lat = f.L1.Access(addr, write)
	events = f.rec.events
	demandMiss = len(events) > 0 && !events[0].Write && events[0].Addr.Line() == addr.Line()
	return lat, events, demandMiss
}

// Access services one demand reference for every variant: it runs
// DataAccess, then applies the recorded LLC-bound requests in order. A
// request to a set no walk has forked runs once, on the shared LLC; a
// request to a forked set runs on every variant's LLC. lats[i]
// receives the reference's total latency for the i-th variant; lats
// must have one slot per variant. Within a reference, every walk must
// come before Access, as each variant's translation does.
func (f *Front) Access(addr arch.PAddr, write bool, lats []int) {
	lat, events, demand := f.DataAccess(addr, write)
	for i := range lats {
		lats[i] = lat
	}
	for k, e := range events {
		// Only the demand fill's latency is on the critical path; the
		// levels already discard writeback latency.
		onPath := k == 0 && demand
		if !f.isForked(f.llc.setOf(e.Addr)) {
			l := f.llc.Access(e.Addr, e.Write)
			if onPath {
				for i := range lats {
					lats[i] += l
				}
			}
			continue
		}
		for i, h := range f.variants {
			l := h.LLC.Access(e.Addr, e.Write)
			if onPath {
				lats[i] += l
			}
		}
	}
}
