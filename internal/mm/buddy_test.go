package mm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"colt/internal/arch"
	"colt/internal/rng"
)

func newTestBuddy(t *testing.T, frames int) (*PhysMem, *Buddy) {
	t.Helper()
	pm := NewPhysMem(frames)
	b := NewBuddy(pm)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("fresh buddy invalid: %v", err)
	}
	return pm, b
}

func TestBuddyInitialFreeLists(t *testing.T) {
	_, b := newTestBuddy(t, 1024)
	if b.FreePages() != 1024 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if b.FreeBlocksOfOrder(10) != 1 {
		t.Fatalf("want one order-10 block, got %d", b.FreeBlocksOfOrder(10))
	}
	if b.LargestFreeOrder() != 10 {
		t.Fatalf("LargestFreeOrder = %d", b.LargestFreeOrder())
	}
}

func TestBuddyNonPowerOfTwoMemory(t *testing.T) {
	_, b := newTestBuddy(t, 1000) // 512+256+128+64+32+8
	if b.FreePages() != 1000 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if b.FreeBlocksOfOrder(9) != 1 || b.FreeBlocksOfOrder(8) != 1 || b.FreeBlocksOfOrder(3) != 1 {
		t.Fatal("decomposition of 1000 frames incorrect")
	}
}

func TestBuddyAllocSplitsLikePaperFigure2(t *testing.T) {
	// Reproduce paper Figure 1→2: 8-frame memory with frames 1,2,3
	// allocated leaves free blocks {0} (order 0) and {4-7} (order 2).
	// A request for 2 pages must split 4-7, returning 4-5 and leaving
	// 6-7 on order-1.
	pm, b := newTestBuddy(t, 8)
	for _, pfn := range []arch.PFN{1, 2, 3} {
		if !b.AllocSpecific(pfn) {
			t.Fatalf("AllocSpecific(%d) failed", pfn)
		}
	}
	if b.FreeBlocksOfOrder(0) != 1 || b.FreeBlocksOfOrder(2) != 1 {
		t.Fatalf("pre-state wrong: order0=%d order2=%d", b.FreeBlocksOfOrder(0), b.FreeBlocksOfOrder(2))
	}
	pfn, err := b.AllocBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 4 {
		t.Fatalf("allocated block at %d, want 4", pfn)
	}
	if b.FreeBlocksOfOrder(1) != 1 {
		t.Fatalf("want pages 6-7 on order-1 list, got %d blocks", b.FreeBlocksOfOrder(1))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Freeing the allocated pages must iteratively merge back to one
	// order-3 block.
	b.FreeBlock(4, 1)
	b.FreeRange(1, 3)
	if !pm.Frame(0).Allocated && b.FreeBlocksOfOrder(3) != 1 {
		t.Fatalf("merge back failed: order3=%d", b.FreeBlocksOfOrder(3))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyBlockAlignment(t *testing.T) {
	_, b := newTestBuddy(t, 4096)
	for order := 0; order < MaxOrder; order++ {
		pfn, err := b.AllocBlock(order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if uint64(pfn)%(1<<order) != 0 {
			t.Fatalf("order %d block at %d not naturally aligned", order, pfn)
		}
	}
}

func TestBuddyOOMAndFragmented(t *testing.T) {
	_, b := newTestBuddy(t, 16)
	if _, err := b.AllocBlock(MaxOrder); err == nil {
		t.Fatal("invalid order accepted")
	}
	// Allocate everything as order-0 then free alternating frames:
	// 8 pages free but max contiguity 1.
	for i := 0; i < 16; i++ {
		if _, err := b.AllocBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.AllocBlock(0); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	for i := 0; i < 16; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
	}
	if _, err := b.AllocBlock(1); err != ErrFragmented {
		t.Fatalf("want ErrFragmented, got %v", err)
	}
	st := b.Stats()
	if st.FragFails == 0 {
		t.Fatal("FragFails not counted")
	}
}

func TestBuddyAllocRangeSingleRun(t *testing.T) {
	_, b := newTestBuddy(t, 1024)
	runs, err := b.AllocRange(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Len != 100 {
		t.Fatalf("runs = %+v", runs)
	}
	// Tail of the 128-block must be free again.
	if b.FreePages() != 1024-100 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if runs[0].End() != runs[0].Base+100 {
		t.Fatal("Run.End arithmetic")
	}
}

func TestBuddyAllocRangeFallback(t *testing.T) {
	_, b := newTestBuddy(t, 64)
	// Fragment: allocate all, free two disjoint 16-page runs.
	if _, err := b.AllocRange(64); err != nil {
		t.Fatal(err)
	}
	b.FreeRange(0, 16)
	b.FreeRange(32, 16)
	runs, err := b.AllocRange(24)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range runs {
		total += r.Len
	}
	if total != 24 || len(runs) < 2 {
		t.Fatalf("fallback runs = %+v", runs)
	}
	if b.Stats().RangeFallbck == 0 {
		t.Fatal("fallback not counted")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyAllocRangeOOMRollback(t *testing.T) {
	_, b := newTestBuddy(t, 32)
	if _, err := b.AllocRange(16); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AllocRange(17); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	if b.FreePages() != 16 {
		t.Fatalf("failed alloc leaked frames: FreePages = %d", b.FreePages())
	}
}

func TestBuddyAllocSpecific(t *testing.T) {
	_, b := newTestBuddy(t, 64)
	if !b.AllocSpecific(13) {
		t.Fatal("AllocSpecific(13) failed on empty memory")
	}
	if b.AllocSpecific(13) {
		t.Fatal("AllocSpecific succeeded on allocated frame")
	}
	if b.FreePages() != 63 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The remaining frames must still be allocatable as a 32-block
	// (upper half untouched).
	if _, err := b.AllocBlock(5); err != nil {
		t.Fatalf("order-5 after AllocSpecific: %v", err)
	}
	b.FreeRange(13, 1)
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyDoubleFreePanics(t *testing.T) {
	_, b := newTestBuddy(t, 16)
	pfn, err := b.AllocBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	b.FreeRange(pfn, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.FreeRange(pfn, 1)
}

// TestFrameStatePanicsNameLowestFrame pins the double-allocation and
// double-free panics to the lowest offending frame of a run, whether
// it lies in the run's first bitmap word or a later one, and whatever
// order the offending frames were made in.
func TestFrameStatePanicsNameLowestFrame(t *testing.T) {
	for _, c := range []struct {
		base arch.PFN
		n    int
		bad  []arch.PFN // frames already in the state the call expects not to find
		want arch.PFN
	}{
		{base: 3, n: 40, bad: []arch.PFN{30, 10}, want: 10},
		{base: 3, n: 150, bad: []arch.PFN{100, 70, 1}, want: 70}, // frame 1 is outside the run
		{base: 60, n: 100, bad: []arch.PFN{159, 128}, want: 128},
		{base: 64, n: 64, bad: []arch.PFN{127}, want: 127},
	} {
		pm := NewPhysMem(256)
		for _, p := range c.bad {
			pm.markAllocated(p, 1)
		}
		want := fmt.Sprintf("mm: frame %d allocated twice", c.want)
		if got := panicText(func() { pm.markAllocated(c.base, c.n) }); got != want {
			t.Errorf("marking [%d, +%d) with %v allocated: panic %q, want %q", c.base, c.n, c.bad, got, want)
		}
		pm.Release()

		pm, b := newTestBuddy(t, 256)
		if got, err := b.AllocPages(make([]arch.PFN, 256)); got != 256 || err != nil {
			t.Fatalf("taking every frame: %d, %v", got, err)
		}
		for _, p := range c.bad {
			b.FreeRange(p, 1)
		}
		want = fmt.Sprintf("mm: double free of frame %d", c.want)
		if got := panicText(func() { b.FreeRange(c.base, c.n) }); got != want {
			t.Errorf("freeing [%d, +%d) with %v free: panic %q, want %q", c.base, c.n, c.bad, got, want)
		}
		b.Release()
		pm.Release()
	}
}

// panicText runs fn and returns what it panicked with, or "<nil>".
func panicText(fn func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	fn()
	return ""
}

func TestBuddyFragmentationIndex(t *testing.T) {
	_, b := newTestBuddy(t, 64)
	if b.FragmentationIndex(HugeOrder) != 0 {
		// order-9 blocks can't exist in 64 frames, but there IS free
		// memory: index should be > 0 only when order is unsatisfiable.
		t.Log("small memory: huge order unsatisfiable by construction")
	}
	if b.FragmentationIndex(2) != 0 {
		t.Fatal("unfragmented memory should have index 0 for order 2")
	}
	if _, err := b.AllocRange(64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
	}
	idx := b.FragmentationIndex(2)
	if idx < 0.5 {
		t.Fatalf("alternating free pattern should be highly fragmented, index = %v", idx)
	}
}

func TestOrderForCount(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 512: 9, 513: 10, 1024: 10}
	for n, want := range cases {
		if got := orderForCount(n); got != want {
			t.Errorf("orderForCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestBuddyPropertyRandomOps drives the allocator through random
// alloc/free sequences and checks structural invariants: no frame ever
// double-allocated, free-list bookkeeping consistent, all memory
// recovered at the end.
func TestBuddyPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := NewPhysMem(2048)
		b := NewBuddy(pm)
		type alloc struct{ runs []Run }
		var live []alloc
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := 1 + rng.Intn(200)
				runs, err := b.AllocRange(n)
				if err != nil {
					continue
				}
				live = append(live, alloc{runs})
			} else {
				i := rng.Intn(len(live))
				for _, r := range live[i].runs {
					b.FreeRange(r.Base, r.Len)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if op%37 == 0 {
				if err := b.CheckInvariants(); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					return false
				}
			}
		}
		for _, a := range live {
			for _, r := range a.runs {
				b.FreeRange(r.Base, r.Len)
			}
		}
		if b.FreePages() != 2048 {
			t.Logf("seed %d: leaked frames, free=%d", seed, b.FreePages())
			return false
		}
		// Full free must merge everything back to maximal blocks.
		if b.FreeBlocksOfOrder(10) != 2 {
			t.Logf("seed %d: merge incomplete, order10=%d", seed, b.FreeBlocksOfOrder(10))
			return false
		}
		return b.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPhysMemBasics(t *testing.T) {
	pm := NewPhysMem(8)
	if pm.Bytes() != 8*arch.PageSize {
		t.Fatalf("Bytes = %d", pm.Bytes())
	}
	if !pm.Valid(7) || pm.Valid(8) {
		t.Fatal("Valid bounds wrong")
	}
	pm.SetOwner(3, PageOwner{PID: 9, VPN: 42}, true)
	f := pm.Frame(3)
	if f.Owner.PID != 9 || f.Owner.VPN != 42 || !f.Movable {
		t.Fatalf("Frame metadata = %+v", f)
	}
	mustPanic(t, "NewPhysMem(0)", func() { NewPhysMem(0) })
	// Free-list links hold pfn+1 in an int32.
	mustPanic(t, "NewPhysMem above the int32 range", func() { NewPhysMem(math.MaxInt32 + 1) })
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleasedMemoryPanicsOnUse: a released Buddy or PhysMem has handed
// its arrays to the next memory of its size, so any use must panic
// rather than touch arrays another system now owns. A second Release
// does nothing, and stats stay readable.
func TestReleasedMemoryPanicsOnUse(t *testing.T) {
	pm := NewPhysMem(1024)
	b := NewBuddy(pm)
	// With every frame allocated no free list has a block, so only the
	// released-allocator check can stop AllocBlock.
	if _, err := b.AllocRange(1024); err != nil {
		t.Fatal(err)
	}
	b.Release()
	b.Release()
	if b.Stats().Allocs != 1 {
		t.Fatalf("stats after Release = %+v", b.Stats())
	}
	mustPanic(t, "AllocBlock on a released Buddy", func() { b.AllocBlock(0) })
	mustPanic(t, "FreeRange on a released Buddy", func() { b.FreeRange(0, 1) })
	pm.Release()
	pm.Release()
	mustPanic(t, "Allocated on a released PhysMem", func() { pm.Allocated(0) })
	mustPanic(t, "SetOwner on a released PhysMem", func() { pm.SetOwner(0, PageOwner{PID: 1}, true) })
}

// TestRecycledBuddyStartsFresh dirties a memory and its allocator,
// releases both, and checks that the next pair of the same size, built
// on the recycled arrays, is the fresh all-free machine.
func TestRecycledBuddyStartsFresh(t *testing.T) {
	const n = 4096
	pm := NewPhysMem(n)
	b := NewBuddy(pm)
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		if pfn, err := b.AllocBlock(r.Intn(4)); err == nil {
			pm.SetOwner(pfn, PageOwner{PID: 1, VPN: arch.VPN(i)}, true)
		}
	}
	b.Release()
	pm.Release()

	pm = NewPhysMem(n)
	b = NewBuddy(pm)
	if got := pm.AllocatedFrames(); got != 0 {
		t.Fatalf("recycled memory has %d allocated frames", got)
	}
	for pfn := arch.PFN(0); pfn < n; pfn++ {
		if f := pm.Frame(pfn); f != (Frame{}) {
			t.Fatalf("recycled frame %d is %+v", pfn, f)
		}
	}
	if issues := b.Audit(); len(issues) > 0 {
		t.Fatalf("recycled allocator inconsistent: %v", issues)
	}
	if b.FreePages() != n || b.FreeBlocksOfOrder(MaxOrder-1) != n>>(MaxOrder-1) {
		t.Fatalf("recycled allocator: %d free pages, %d top-order blocks", b.FreePages(), b.FreeBlocksOfOrder(MaxOrder-1))
	}
}
