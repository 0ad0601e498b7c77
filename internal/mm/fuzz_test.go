package mm_test

import (
	"errors"
	"testing"

	"colt/internal/arch"
	"colt/internal/invariant"
	"colt/internal/mm"
)

// fuzzBlock tracks one live allocation during the fuzz run.
type fuzzBlock struct {
	pfn   arch.PFN
	order int
}

// fuzzMigrator keeps the fuzz harness's view of movable pages in sync
// with compaction: every tracked order-0 page the daemon moves is
// rehomed in the live list so later frees release the right frames.
type fuzzMigrator struct{ live *[]fuzzBlock }

func (m fuzzMigrator) MigratePage(owner mm.PageOwner, from, to arch.PFN) error {
	for i := range *m.live {
		if (*m.live)[i].order == 0 && (*m.live)[i].pfn == from {
			(*m.live)[i].pfn = to
			break
		}
	}
	return nil
}

// FuzzBuddyAllocFree drives random alloc/free/compact sequences against
// a small machine and runs the buddy free-list auditor after every
// step: no operation order may corrupt block alignment, free-page
// accounting, or the allocated/free partition. Movable order-0 pages
// let the compaction daemon migrate under the allocator's feet; larger
// blocks are pinned, modeling the kernel obstacles of paper §3.2.2.
func FuzzBuddyAllocFree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x04, 0x08, 0x02, 0x06})
	f.Add([]byte{0x00, 0x00, 0x00, 0x03, 0x02, 0x03, 0x00, 0x02})
	f.Add([]byte{0x11, 0x25, 0x00, 0x03, 0x0a, 0x03, 0x16, 0x02, 0x02})
	f.Add([]byte{0x00, 0x01, 0x04, 0x05, 0x02, 0x06, 0x03, 0x07, 0x0b, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		phys := mm.NewPhysMem(256)
		buddy := mm.NewBuddy(phys)
		var live []fuzzBlock
		comp := mm.NewCompactor(phys, buddy, fuzzMigrator{live: &live}, mm.CompactionNormal)

		nextVPN := arch.VPN(0)
		audit := func(step int, op byte) {
			if vs := invariant.AuditBuddy(buddy); len(vs) != 0 {
				t.Fatalf("step %d (op 0x%02x): buddy invariant broken: %v", step, op, vs[0])
			}
		}
		audit(-1, 0)
		for step, op := range ops {
			switch op % 4 {
			case 0, 1: // allocate a block of order 0..2
				order := int(op>>2) % 3
				pfn, err := buddy.AllocBlock(order)
				if err == nil {
					for i := 0; i < 1<<order; i++ {
						// Only single pages are movable; the harness
						// cannot track a split multi-page block across
						// migration.
						phys.SetOwner(pfn+arch.PFN(i), mm.PageOwner{PID: 1, VPN: nextVPN}, order == 0)
						nextVPN++
					}
					live = append(live, fuzzBlock{pfn: pfn, order: order})
				}
			case 2: // free a live block
				if len(live) > 0 {
					idx := int(op>>2) % len(live)
					b := live[idx]
					buddy.FreeRange(b.pfn, 1<<b.order)
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // run the compaction daemon
				comp.Compact(-1)
			}
			audit(step, op)
		}
	})
}

// bulkTwin is one side of FuzzBuddyBulkMatchesSequential: an allocator
// whose fault hook vetoes the call numbered vetoAt.
type bulkTwin struct {
	phys   *mm.PhysMem
	buddy  *mm.Buddy
	comp   *mm.Compactor
	calls  int
	vetoAt int
}

// newBulkTwin builds one side, with the vetoing fault hook installed
// when hooked is set.
func newBulkTwin(frames int, hooked bool) *bulkTwin {
	tw := &bulkTwin{phys: mm.NewPhysMem(frames)}
	tw.buddy = mm.NewBuddy(tw.phys)
	if hooked {
		tw.buddy.SetAllocFaultHook(func(int) error {
			tw.calls++
			if tw.calls == tw.vetoAt {
				return errFuzzVeto
			}
			return nil
		})
	}
	// Owners travel with migrated frames, so the harness has nothing to
	// rehome.
	tw.comp = mm.NewCompactor(tw.phys, tw.buddy, nil, mm.CompactionNormal)
	return tw
}

var errFuzzVeto = errors.New("fuzz veto")

// take records frames as movable harness pages.
func (tw *bulkTwin) take(pfns ...arch.PFN) {
	for _, pfn := range pfns {
		tw.phys.SetOwner(pfn, mm.PageOwner{PID: 1, VPN: arch.VPN(pfn)}, true)
	}
}

// liveRun returns up to max consecutive movable harness frames starting
// at the pick-th one in address order (modulo their count).
func (tw *bulkTwin) liveRun(pick, max int) (arch.PFN, int) {
	var movable []arch.PFN
	for p := 0; p < tw.phys.NumFrames(); p++ {
		if pfn := arch.PFN(p); tw.phys.Allocated(pfn) && tw.phys.Movable(pfn) {
			movable = append(movable, pfn)
		}
	}
	if len(movable) == 0 {
		return 0, 0
	}
	base := movable[pick%len(movable)]
	n := 0
	for n < max && tw.phys.Valid(base+arch.PFN(n)) && tw.phys.Allocated(base+arch.PFN(n)) && tw.phys.Movable(base+arch.PFN(n)) {
		n++
	}
	return base, n
}

// FuzzBuddyBulkMatchesSequential applies each decoded operation to twin
// allocators, the bulk call on one and its one-frame equivalent on the
// other, and requires identical state after every step: free-list
// heads, links, orderOf, per-order counts, free pages, the frame
// bitmaps and owners, Allocs, Splits and AllocFails. Both must pass
// the free-list auditor. Each op byte's low three bits pick:
//
//	0-1: AllocBlock of order 0-2 on both (order > 0 pinned);
//	2:   AllocPages of 1-600 frames, against AllocBlock(0) calls up to
//	     the first error;
//	3:   FreeRange of a live ascending run of up to 192 movable frames,
//	     which may start and end anywhere in a bitmap word and span
//	     several words, against one FreeRange per frame in ascending
//	     order;
//	4:   Compact(-1) on both;
//	5:   arm the fault hook to veto the j-th call from now on both;
//
// and 6-7 do nothing. The next byte, when present, sizes the op. Every
// sequence runs twice: with the fault hook installed on both twins,
// and without one, where op 5 does nothing.
func FuzzBuddyBulkMatchesSequential(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		bulkMatchesSequential(t, ops, true)
		bulkMatchesSequential(t, ops, false)
	})
}

func bulkMatchesSequential(t *testing.T, ops []byte, hooked bool) {
	bulk, seq := newBulkTwin(1000, hooked), newBulkTwin(1000, hooked)
	defer func() {
		for _, tw := range []*bulkTwin{bulk, seq} {
			tw.buddy.Release()
			tw.phys.Release()
		}
	}()
	for i := 0; i < len(ops); i++ {
		op, arg := ops[i], 0
		if i+1 < len(ops) {
			arg = int(ops[i+1])
		}
		switch op & 7 {
		case 0, 1:
			order := int(op>>3) % 3
			for _, tw := range []*bulkTwin{bulk, seq} {
				if pfn, err := tw.buddy.AllocBlock(order); err == nil {
					for j := 0; j < 1<<order; j++ {
						tw.phys.SetOwner(pfn+arch.PFN(j), mm.PageOwner{PID: 2}, order == 0)
					}
				}
			}
		case 2:
			n := 1 + (int(op>>3)<<8|arg)%600
			i++
			out := make([]arch.PFN, n)
			got, err := bulk.buddy.AllocPages(out)
			bulk.take(out[:got]...)
			var want []arch.PFN
			var wantErr error
			for len(want) < n {
				pfn, err := seq.buddy.AllocBlock(0)
				if err != nil {
					wantErr = err
					break
				}
				want = append(want, pfn)
			}
			seq.take(want...)
			if got != len(want) || err != wantErr {
				t.Fatalf("op %d: AllocPages(%d) = %d, %v; AllocBlock(0) gave %d, %v", i, n, got, err, len(want), wantErr)
			}
		case 3:
			base, n := bulk.liveRun(int(op>>3), 1+arg%192)
			i++
			if n == 0 {
				break
			}
			bulk.buddy.FreeRange(base, n)
			for p := base; p < base+arch.PFN(n); p++ {
				if !seq.phys.Allocated(p) {
					t.Fatalf("op %d: frame %d free only on the sequential twin", i, p)
				}
				seq.buddy.FreeRange(p, 1)
			}
		case 4:
			bulk.comp.Compact(-1)
			seq.comp.Compact(-1)
		case 5:
			j := 1 + int(op>>3)
			bulk.vetoAt, seq.vetoAt = bulk.calls+j, seq.calls+j
		}
		if d := mm.DiffBuddies(bulk.buddy, seq.buddy); d != "" {
			t.Fatalf("hooked=%v op %d (0x%02x): twins differ: %s", hooked, i, op, d)
		}
		for _, tw := range []*bulkTwin{bulk, seq} {
			if vs := invariant.AuditBuddy(tw.buddy); len(vs) != 0 {
				t.Fatalf("hooked=%v op %d (0x%02x): buddy invariant broken: %v", hooked, i, op, vs[0])
			}
		}
	}
}
