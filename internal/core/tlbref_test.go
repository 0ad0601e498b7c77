package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"colt/internal/arch"
)

// This file holds naive per-entry models of SetAssocTLB and
// FullyAssocTLB, written from their documented behaviour with explicit
// valid, tag, valid-bit, base, attribute and LRU fields and no encoding
// shared with the fused lanes, and drives each beside the real
// structure over seeded operation streams.
//
// Both models keep every field of an invalidated entry: the real
// structures order invalid entries for replacement by their stale
// recency (and, under coalescing-aware replacement, by their stale
// coverage), so the models must too.

// refSAEntry is one entry of the set-associative model.
type refSAEntry struct {
	valid   bool
	tag     uint64
	vbits   uint8 // one bit per translation of the aligned block
	base    arch.PFN
	attr    arch.Attr
	lastUse uint64
}

// refSA models SetAssocTLB: set = (vpn >> shift) mod sets, tag =
// (vpn >> shift) div sets. A lookup hits an entry with the tag whose
// valid bit for vpn's slot is set. An insert replaces the first
// resident entry of its block whose valid bits overlap the run's, or
// else the victim: an invalid entry before a valid one, then (under
// coalescing-aware replacement) the entry covering fewer translations,
// then the least recently used, lowest way first.
type refSA struct {
	sets, ways int
	shift      uint
	bias       bool
	e          []refSAEntry
	now        uint64
	st         TLBStats
}

func newRefSA(sets, ways int, shift uint, bias bool) *refSA {
	return &refSA{sets: sets, ways: ways, shift: shift, bias: bias, e: make([]refSAEntry, sets*ways)}
}

func (m *refSA) index(vpn arch.VPN) (set int, tag uint64, off uint) {
	block := uint64(vpn) >> m.shift
	return int(block % uint64(m.sets)), block / uint64(m.sets), uint(uint64(vpn) % (1 << m.shift))
}

func (m *refSA) way(set, j int) *refSAEntry { return &m.e[set*m.ways+j] }

func (m *refSA) covers(e *refSAEntry, tag uint64, off uint) bool {
	return e.valid && e.tag == tag && e.vbits&(1<<off) != 0
}

// run rebuilds the coalesced run entry e of set holds.
func (m *refSA) run(e *refSAEntry, set int) Run {
	blockStart := arch.VPN((e.tag*uint64(m.sets) + uint64(set)) << m.shift)
	return Run{
		BaseVPN: blockStart + arch.VPN(bits.TrailingZeros8(e.vbits)),
		BasePFN: e.base,
		Len:     bits.OnesCount8(e.vbits),
		Attr:    e.attr,
	}
}

func (m *refSA) lookup(vpn arch.VPN, touch bool) (arch.PFN, Run, bool) {
	set, tag, off := m.index(vpn)
	for j := range m.ways {
		if e := m.way(set, j); m.covers(e, tag, off) {
			if touch {
				m.st.Hits++
				m.now++
				e.lastUse = m.now
			}
			return e.base + arch.PFN(bits.OnesCount8(e.vbits&(1<<off-1))), m.run(e, set), true
		}
	}
	if touch {
		m.st.Misses++
	}
	return 0, Run{}, false
}

func (m *refSA) less(a, b *refSAEntry) bool {
	if a.valid != b.valid {
		return !a.valid
	}
	if m.bias {
		if ca, cb := bits.OnesCount8(a.vbits), bits.OnesCount8(b.vbits); ca != cb {
			return ca < cb
		}
	}
	return a.lastUse < b.lastUse
}

func (m *refSA) insert(r Run) (Run, bool) {
	set, tag, off := m.index(r.BaseVPN)
	vbits := uint8(1<<r.Len-1) << off
	m.now++
	m.st.Fills++
	m.st.CoalescedIn += uint64(r.Len - 1)
	fresh := refSAEntry{valid: true, tag: tag, vbits: vbits, base: r.BasePFN, attr: r.Attr, lastUse: m.now}
	for j := range m.ways {
		if e := m.way(set, j); e.valid && e.tag == tag && e.vbits&vbits != 0 {
			*e = fresh
			return Run{}, false
		}
	}
	victim := m.way(set, 0)
	for j := 1; j < m.ways; j++ {
		if e := m.way(set, j); m.less(e, victim) {
			victim = e
		}
	}
	var evicted Run
	wasEvicted := victim.valid
	if wasEvicted {
		m.st.Evictions++
		evicted = m.run(victim, set)
	}
	*victim = fresh
	return evicted, wasEvicted
}

func (m *refSA) invalidate(vpn arch.VPN) bool {
	set, tag, off := m.index(vpn)
	removed := false
	for j := range m.ways {
		if e := m.way(set, j); m.covers(e, tag, off) {
			e.valid = false
			m.st.Invalidates++
			removed = true
		}
	}
	return removed
}

// invalidateOne clears vpn's valid bit. The lower remainder keeps the
// entry; an upper remainder alone slides the base frame up by one; both
// remainders split, and the upper one is inserted as its own run.
func (m *refSA) invalidateOne(vpn arch.VPN) bool {
	set, tag, off := m.index(vpn)
	removed := false
	for j := range m.ways {
		e := m.way(set, j)
		if !m.covers(e, tag, off) {
			continue
		}
		removed = true
		m.st.Invalidates++
		lower := e.vbits & (1<<off - 1)
		upper := e.vbits >> (off + 1) << (off + 1)
		switch {
		case lower == 0 && upper == 0:
			e.valid = false
		case lower == 0:
			e.base++
			e.vbits = upper
		case upper == 0:
			e.vbits = lower
		default:
			blockStart := vpn >> m.shift << m.shift
			up := Run{
				BaseVPN: blockStart + arch.VPN(bits.TrailingZeros8(upper)),
				BasePFN: e.base + arch.PFN(bits.OnesCount8(lower)) + 1,
				Len:     bits.OnesCount8(upper),
				Attr:    e.attr,
			}
			e.vbits = lower
			m.insert(up)
		}
	}
	return removed
}

func (m *refSA) invalidateAll() {
	for i := range m.e {
		m.e[i].valid = false
	}
	m.st.Invalidates++
}

// resident lists every valid entry's run in entry order.
func (m *refSA) resident() []Run {
	var out []Run
	for i := range m.e {
		if e := &m.e[i]; e.valid {
			out = append(out, m.run(e, i/m.ways))
		}
	}
	return out
}

// saOp is one operation of a set-associative stream.
type saOp struct {
	kind     int // see the saXxx constants
	vpn, end arch.VPN
	run      Run
}

const (
	saLookup = iota
	saLookupWithRun
	saLookupRun
	saInsert
	saInvalidate
	saInvalidateOne
	saInvalidateRange
	saInvalidateAll
)

// saStream draws n operations over a VPN space three times the TLB's
// reach at full coalescing, so hits, conflict evictions and overlapping
// refills all occur: 40% lookups of the three kinds, 30% coalesced
// inserts of one to 2^shift pages inside an aligned block, 10% each
// whole-entry and single-translation invalidations, 9% range
// invalidations of up to 24 pages, 1% full flushes.
func saStream(seed int64, sets, ways int, shift uint, n int) []saOp {
	r := rand.New(rand.NewSource(seed))
	space := arch.VPN(3 * sets * ways << shift)
	out := make([]saOp, n)
	for i := range out {
		v := arch.VPN(r.Int63n(int64(space)))
		op := saOp{vpn: v}
		switch p := r.Intn(100); {
		case p < 30:
			op.kind = saLookup
		case p < 36:
			op.kind = saLookupWithRun
		case p < 40:
			op.kind = saLookupRun
		case p < 70:
			op.kind = saInsert
			off := int(v) & (1<<shift - 1)
			n := 1 + r.Intn(1<<shift-off)
			op.run = Run{BaseVPN: v, BasePFN: arch.PFN(v) + arch.PFN(r.Intn(3))*1000, Len: n, Attr: arch.Attr(r.Intn(2))}
		case p < 80:
			op.kind = saInvalidate
		case p < 90:
			op.kind = saInvalidateOne
		case p < 99:
			op.kind = saInvalidateRange
			op.end = v + arch.VPN(1+r.Intn(24))
		default:
			op.kind = saInvalidateAll
		}
		out[i] = op
	}
	return out
}

// TestSetAssocTLBVsReferenceModel drives SetAssocTLB and refSA over
// seeded streams for every index shift, with coalescing-aware
// replacement off and on, and requires identical results operation by
// operation: each hit or miss and its frame (and run, where the call
// returns one), each eviction and the evicted run, each invalidation's
// outcome, and the resident runs in entry order. The statistics must
// match at the end.
func TestSetAssocTLBVsReferenceModel(t *testing.T) {
	for shift := uint(0); shift <= MaxSAShift; shift++ {
		for _, bias := range []bool{false, true} {
			const sets, ways = 8, 4
			t.Run(fmt.Sprintf("shift=%d/bias=%v", shift, bias), func(t *testing.T) {
				tlb := NewSetAssocTLB(sets, ways, shift)
				tlb.SetReplacementBias(bias)
				m := newRefSA(sets, ways, shift, bias)
				seed := int64(2 * shift)
				if bias {
					seed++
				}
				var evictions, splits int
				for i, op := range saStream(seed, sets, ways, shift, 30000) {
					var got, want string
					switch op.kind {
					case saLookup:
						pfn, ok := tlb.Lookup(op.vpn)
						wpfn, _, wok := m.lookup(op.vpn, true)
						got, want = fmt.Sprint(pfn, ok), fmt.Sprint(wpfn, wok)
					case saLookupWithRun:
						pfn, run, ok := tlb.lookupWithRun(op.vpn)
						wpfn, wrun, wok := m.lookup(op.vpn, true)
						got, want = fmt.Sprint(pfn, run, ok), fmt.Sprint(wpfn, wrun, wok)
					case saLookupRun:
						run, ok := tlb.LookupRun(op.vpn)
						_, wrun, wok := m.lookup(op.vpn, false)
						got, want = fmt.Sprint(run, ok), fmt.Sprint(wrun, wok)
					case saInsert:
						ev, ok := tlb.Insert(op.run)
						wev, wok := m.insert(op.run)
						got, want = fmt.Sprint(ev, ok), fmt.Sprint(wev, wok)
						if wok {
							evictions++
						}
					case saInvalidate:
						got, want = fmt.Sprint(tlb.Invalidate(op.vpn)), fmt.Sprint(m.invalidate(op.vpn))
					case saInvalidateOne:
						fills := m.st.Fills
						got, want = fmt.Sprint(tlb.InvalidateOne(op.vpn)), fmt.Sprint(m.invalidateOne(op.vpn))
						if m.st.Fills != fills {
							splits++
						}
					case saInvalidateRange:
						tlb.invalidateRange(op.vpn, op.end)
						for v := op.vpn; v < op.end; v++ {
							m.invalidate(v)
						}
					case saInvalidateAll:
						tlb.InvalidateAll()
						m.invalidateAll()
					}
					if got != want {
						t.Fatalf("op %d %+v: got %s, model %s", i, op, got, want)
					}
					var runs []Run
					tlb.EachRun(func(r Run) { runs = append(runs, r) })
					if wruns := m.resident(); !slices.Equal(runs, wruns) || tlb.Occupied() != len(wruns) {
						t.Fatalf("op %d %+v: resident %v, model %v", i, op, runs, wruns)
					}
				}
				want := m.st
				want.Lookups = want.Hits + want.Misses
				if st := tlb.Stats(); st != want {
					t.Fatalf("stats %+v, model %+v", st, want)
				}
				// A split needs a translation on each side of the removed
				// one, so only blocks of four or more pages can split.
				if evictions == 0 || m.st.Hits == 0 || (shift > 0 && m.st.CoalescedIn == 0) || (shift > 1 && splits == 0) {
					t.Fatalf("stream exercised too little: %d evictions, %d splits, %+v", evictions, splits, m.st)
				}
			})
		}
	}
}

// refFAEntry is one entry of the fully-associative model. A superpage
// entry records arch.PagesPerHuge as its length.
type refFAEntry struct {
	valid, huge bool
	base        arch.VPN
	pfn         arch.PFN
	length      int
	attr        arch.Attr
	lastUse     uint64
}

func (e *refFAEntry) covers(vpn arch.VPN) bool {
	return e.valid && vpn >= e.base && vpn < e.base+arch.VPN(e.length)
}

func (e *refFAEntry) run() Run {
	return Run{BaseVPN: e.base, BasePFN: e.pfn, Len: e.length, Attr: e.attr}
}

// refFA models FullyAssocTLB: a lookup hits the first resident entry
// whose range covers vpn. A range insert first absorbs, pass after
// pass until none qualifies, every resident non-superpage entry with
// the same attributes and the same VPN→PFN offset whose range touches
// or overlaps the run, unless the union would exceed MaxFACoalesce
// pages; the result replaces the victim. A superpage insert refreshes
// a resident superpage entry of the same base in place. The victim is
// an invalid entry before a valid one, then (under coalescing-aware
// replacement) the shorter entry, then the least recently used, lowest
// slot first.
type refFA struct {
	bias   bool
	e      []refFAEntry
	now    uint64
	st     TLBStats
	merges uint64
	victim int // the slot the last fill took, -1 for an in-place refresh
}

func (m *refFA) less(a, b *refFAEntry) bool {
	if a.valid != b.valid {
		return !a.valid
	}
	if m.bias && a.length != b.length {
		return a.length < b.length
	}
	return a.lastUse < b.lastUse
}

// fill puts e into the victim slot and returns the run it evicted.
func (m *refFA) fill(e refFAEntry) (Run, bool) {
	v := 0
	for i := 1; i < len(m.e); i++ {
		if m.less(&m.e[i], &m.e[v]) {
			v = i
		}
	}
	m.victim = v
	old := m.e[v]
	if old.valid {
		m.st.Evictions++
	}
	e.valid, e.lastUse = true, m.now
	m.e[v] = e
	return old.run(), old.valid
}

func (m *refFA) lookup(vpn arch.VPN) (arch.PFN, bool) {
	for i := range m.e {
		if e := &m.e[i]; e.covers(vpn) {
			m.st.Hits++
			m.now++
			e.lastUse = m.now
			return e.pfn + arch.PFN(vpn-e.base), true
		}
	}
	m.st.Misses++
	return 0, false
}

func (m *refFA) insertHuge(base arch.VPN, pfn arch.PFN, attr arch.Attr) (Run, bool) {
	m.now++
	m.st.Fills++
	for i := range m.e {
		if e := &m.e[i]; e.valid && e.huge && e.base == base {
			e.pfn, e.attr, e.lastUse = pfn, attr, m.now
			m.victim = -1
			return Run{}, false
		}
	}
	return m.fill(refFAEntry{huge: true, base: base, pfn: pfn, length: arch.PagesPerHuge, attr: attr})
}

func (m *refFA) insert(r Run) (Run, bool) {
	r.Len = min(r.Len, MaxFACoalesce)
	m.now++
	m.st.Fills++
	m.st.CoalescedIn += uint64(r.Len - 1)
	for merged := true; merged; {
		merged = false
		for i := range m.e {
			e := &m.e[i]
			if !e.valid || e.huge || e.attr != r.Attr ||
				int64(e.pfn)-int64(e.base) != int64(r.BasePFN)-int64(r.BaseVPN) ||
				r.BaseVPN > e.base+arch.VPN(e.length) || e.base > r.End() {
				continue
			}
			lo, hi := min(e.base, r.BaseVPN), max(e.base+arch.VPN(e.length), r.End())
			if hi-lo > MaxFACoalesce {
				continue
			}
			r = Run{BaseVPN: lo, BasePFN: r.BasePFN - arch.PFN(r.BaseVPN-lo), Len: int(hi - lo), Attr: r.Attr}
			e.valid = false
			m.merges++
			merged = true
		}
	}
	return m.fill(refFAEntry{base: r.BaseVPN, pfn: r.BasePFN, length: r.Len, attr: r.Attr})
}

func (m *refFA) invalidate(vpn arch.VPN) bool {
	removed := false
	for i := range m.e {
		if e := &m.e[i]; e.covers(vpn) {
			e.valid = false
			m.st.Invalidates++
			removed = true
		}
	}
	return removed
}

// invalidateOne drops a covering superpage whole and splits a covering
// range around vpn: the left remainder keeps the slot (or the right
// one, when vpn was the first page), and a right remainder beside a
// left one is inserted afterwards as its own range.
func (m *refFA) invalidateOne(vpn arch.VPN) bool {
	removed := false
	var reinserts []Run
	for i := range m.e {
		e := &m.e[i]
		if !e.covers(vpn) {
			continue
		}
		removed = true
		m.st.Invalidates++
		left := int(vpn - e.base)
		right := e.length - left - 1
		switch {
		case e.huge || (left == 0 && right == 0):
			e.valid = false
		case left == 0:
			e.base++
			e.pfn++
			e.length = right
		case right == 0:
			e.length = left
		default:
			e.length = left
			reinserts = append(reinserts, Run{BaseVPN: vpn + 1, BasePFN: e.pfn + arch.PFN(left) + 1, Len: right, Attr: e.attr})
		}
	}
	for _, r := range reinserts {
		m.insert(r)
	}
	return removed
}

func (m *refFA) invalidateAll() {
	for i := range m.e {
		m.e[i].valid = false
	}
	m.st.Invalidates++
}

func (m *refFA) occupied() int {
	n := 0
	for _, e := range m.e {
		if e.valid {
			n++
		}
	}
	return n
}

// faSlot is one slot's visible state in the real structure or the
// model.
type faSlot struct {
	valid, huge bool
	run         Run
}

func realFASlots(t *FullyAssocTLB) []faSlot {
	out := make([]faSlot, t.capacity)
	for i := range out {
		if t.valid[i] {
			out[i] = faSlot{true, t.huge[i], Run{BaseVPN: t.baseVPN[i], BasePFN: t.basePFN[i], Len: t.span(i), Attr: t.attr[i]}}
		}
	}
	return out
}

func (m *refFA) slots() []faSlot {
	out := make([]faSlot, len(m.e))
	for i, e := range m.e {
		if e.valid {
			out[i] = faSlot{true, e.huge, e.run()}
		}
	}
	return out
}

// faOp is one operation of a fully-associative stream.
type faOp struct {
	kind int // see the faXxx constants
	vpn  arch.VPN
	run  Run
}

const (
	faLookup = iota
	faInsert
	faInsertHuge
	faInvalidate
	faInvalidateOne
	faInvalidateAll
)

// faStream draws n operations over 4096 base pages and eight
// superpage slots above them: 40% lookups, 28% range inserts (one to
// 24 pages, one in twenty 600–1100 pages so merges hit the 1024-page
// cap and inserts get clipped) at one of three VPN→PFN offsets and two
// attribute values so neighbours merge, 8% superpage inserts, 11%
// whole-entry and 12% single-translation invalidations, 1% flushes.
func faStream(seed int64, n int) []faOp {
	r := rand.New(rand.NewSource(seed))
	out := make([]faOp, n)
	for i := range out {
		v := arch.VPN(r.Intn(4096))
		if r.Intn(4) == 0 {
			v = 4096 + arch.VPN(r.Intn(8*arch.PagesPerHuge))
		}
		op := faOp{vpn: v}
		switch p := r.Intn(100); {
		case p < 40:
			op.kind = faLookup
		case p < 68:
			op.kind = faInsert
			n := 1 + r.Intn(24)
			if r.Intn(20) == 0 {
				n = 600 + r.Intn(500)
			}
			v = arch.VPN(r.Intn(4096))
			op.run = Run{BaseVPN: v, BasePFN: arch.PFN(v) + arch.PFN(r.Intn(3))*7, Len: n, Attr: arch.Attr(r.Intn(2))}
		case p < 76:
			op.kind = faInsertHuge
			base := 4096 + arch.VPN(r.Intn(8))*arch.PagesPerHuge
			op.run = Run{BaseVPN: base, BasePFN: arch.PFN(base) + arch.PFN(r.Intn(2))*arch.PagesPerHuge, Len: arch.PagesPerHuge, Attr: arch.Attr(r.Intn(2))}
		case p < 87:
			op.kind = faInvalidate
		case p < 99:
			op.kind = faInvalidateOne
		default:
			op.kind = faInvalidateAll
		}
		out[i] = op
	}
	return out
}

// TestFullyAssocTLBVsReferenceModel drives FullyAssocTLB and refFA
// over seeded streams at two capacities, with coalescing-aware
// replacement off and on, and requires identical results operation by
// operation: each hit or miss and its frame, each eviction and the
// evicted run, each invalidation's outcome, and every slot's contents.
// The statistics and merge counts must match at the end.
func TestFullyAssocTLBVsReferenceModel(t *testing.T) {
	for _, capacity := range []int{8, 16} {
		for _, bias := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap=%d/bias=%v", capacity, bias), func(t *testing.T) {
				tlb := NewFullyAssocTLB(capacity)
				tlb.SetReplacementBias(bias)
				m := &refFA{bias: bias, e: make([]refFAEntry, capacity)}
				evictions := 0
				seed := int64(capacity)
				if bias {
					seed++
				}
				for i, op := range faStream(seed, 30000) {
					before := realFASlots(tlb)
					evBefore, wevBefore := tlb.Stats().Evictions, m.st.Evictions
					var got, want string
					var wev Run
					var wok bool
					switch op.kind {
					case faLookup:
						pfn, ok := tlb.Lookup(op.vpn)
						wpfn, whit := m.lookup(op.vpn)
						got, want = fmt.Sprint(pfn, ok), fmt.Sprint(wpfn, whit)
					case faInsert:
						tlb.Insert(op.run)
						wev, wok = m.insert(op.run)
					case faInsertHuge:
						tlb.InsertHuge(op.run.BaseVPN, op.run.BasePFN, op.run.Attr)
						wev, wok = m.insertHuge(op.run.BaseVPN, op.run.BasePFN, op.run.Attr)
					case faInvalidate:
						got, want = fmt.Sprint(tlb.Invalidate(op.vpn)), fmt.Sprint(m.invalidate(op.vpn))
					case faInvalidateOne:
						got, want = fmt.Sprint(tlb.InvalidateOne(op.vpn)), fmt.Sprint(m.invalidateOne(op.vpn))
					case faInvalidateAll:
						tlb.InvalidateAll()
						m.invalidateAll()
					}
					if got != want {
						t.Fatalf("op %d %+v: got %s, model %s", i, op, got, want)
					}
					after := realFASlots(tlb)
					if wslots := m.slots(); !slices.Equal(after, wslots) || tlb.Occupied() != m.occupied() {
						t.Fatalf("op %d %+v: slots %v, model %v", i, op, after, wslots)
					}
					// An insert evicts what its victim slot held: the slot
					// the model filled, read from before the operation. (A
					// split's reinsert may evict too; the slot comparison
					// above pins which entry.)
					if tlb.Stats().Evictions-evBefore != m.st.Evictions-wevBefore || (wok && before[m.victim].run != wev) {
						t.Fatalf("op %d %+v: %d evictions (slot before %+v), model %d evicting %v",
							i, op, tlb.Stats().Evictions-evBefore, before[max(m.victim, 0)], m.st.Evictions-wevBefore, wev)
					}
					if wok {
						evictions++
					}
				}
				want := m.st
				want.Lookups = want.Hits + want.Misses
				if st := tlb.Stats(); st != want || tlb.Merges() != m.merges {
					t.Fatalf("stats %+v merges %d, model %+v merges %d", st, tlb.Merges(), want, m.merges)
				}
				if evictions == 0 || m.merges == 0 || m.st.Hits == 0 {
					t.Fatalf("stream exercised too little: %d evictions, %d merges, %+v", evictions, m.merges, m.st)
				}
			})
		}
	}
}
