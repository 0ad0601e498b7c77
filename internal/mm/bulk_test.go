package mm

import (
	"errors"
	"math/rand"
	"testing"

	"colt/internal/arch"
)

// twinBuddies are two allocators driven through the same history, so a
// bulk call on one can be checked against its one-frame equivalent on
// the other.
type twinBuddies struct {
	bulk, seq *Buddy
	// hookCalls counts each allocator's fault-hook calls; the hook
	// vetoes the call whose count reaches vetoAt.
	hookCalls [2]int
	vetoAt    [2]int
}

var errVeto = errors.New("injected veto")

// newTwinBuddies builds the twins, with the vetoing fault hook
// installed on both when hooked is set; without it armVeto does
// nothing.
func newTwinBuddies(frames int, hooked bool) *twinBuddies {
	tw := &twinBuddies{bulk: NewBuddy(NewPhysMem(frames)), seq: NewBuddy(NewPhysMem(frames))}
	for i, b := range []*Buddy{tw.bulk, tw.seq} {
		if !hooked {
			break
		}
		b.SetAllocFaultHook(func(int) error {
			tw.hookCalls[i]++
			if tw.hookCalls[i] == tw.vetoAt[i] {
				return errVeto
			}
			return nil
		})
	}
	return tw
}

// armVeto makes the j-th hook call from now (1-based) fail on both.
func (tw *twinBuddies) armVeto(j int) {
	for i := range tw.vetoAt {
		tw.vetoAt[i] = tw.hookCalls[i] + j
	}
}

// release returns both allocators' arrays to the pools.
func (tw *twinBuddies) release() {
	for _, b := range []*Buddy{tw.bulk, tw.seq} {
		pm := b.phys
		b.Release()
		pm.Release()
	}
}

// own gives every allocated frame of both allocators the same owner
// and a random movability, so a free must clear both.
func (tw *twinBuddies) own(r *rand.Rand) {
	for p := 0; p < tw.bulk.phys.NumFrames(); p++ {
		pfn := arch.PFN(p)
		if tw.bulk.phys.Allocated(pfn) {
			owner, movable := PageOwner{PID: 1 + r.Intn(3), VPN: arch.VPN(p)}, r.Intn(2) == 0
			tw.bulk.phys.SetOwner(pfn, owner, movable)
			tw.seq.phys.SetOwner(pfn, owner, movable)
		}
	}
}

// scramble applies the same random history to both allocators: blocks
// of order 0-3 and multi-run ranges taken, and random allocated spans
// freed, so the free lists hold a realistic mix of split and merged
// blocks.
func (tw *twinBuddies) scramble(r *rand.Rand, ops int) {
	frames := tw.bulk.phys.NumFrames()
	for i := 0; i < ops; i++ {
		switch r.Intn(4) {
		case 0:
			order := r.Intn(4)
			tw.bulk.AllocBlock(order)
			tw.seq.AllocBlock(order)
		case 1:
			n := 1 + r.Intn(64)
			tw.bulk.AllocRange(n)
			tw.seq.AllocRange(n)
		default:
			p := arch.PFN(r.Intn(frames))
			n := 0
			for max := 1 + r.Intn(40); n < max && tw.bulk.phys.Valid(p+arch.PFN(n)) && tw.bulk.phys.Allocated(p+arch.PFN(n)); n++ {
			}
			if n > 0 {
				tw.bulk.FreeRange(p, n)
				tw.seq.FreeRange(p, n)
			}
		}
	}
}

// allocBoth takes n frames from the bulk allocator with one AllocPages
// and from the other with AllocBlock(0) calls up to the first error,
// and checks the two agree on the frames and the error.
func (tw *twinBuddies) allocBoth(t *testing.T, n int) int {
	t.Helper()
	out := make([]arch.PFN, n)
	got, err := tw.bulk.AllocPages(out)
	var want []arch.PFN
	var wantErr error
	for len(want) < n {
		pfn, err := tw.seq.AllocBlock(0)
		if err != nil {
			wantErr = err
			break
		}
		want = append(want, pfn)
	}
	if got != len(want) || err != wantErr {
		t.Fatalf("AllocPages(%d) = %d frames, %v; AllocBlock(0) calls gave %d, %v", n, got, err, len(want), wantErr)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("AllocPages frame %d = %d, AllocBlock(0) gave %d", i, out[i], want[i])
		}
	}
	return got
}

func (tw *twinBuddies) mustMatch(t *testing.T, what string) {
	t.Helper()
	if d := DiffBuddies(tw.bulk, tw.seq); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// audit runs the free-list auditor on the bulk allocator (the other
// matches it).
func (tw *twinBuddies) audit(t *testing.T) {
	t.Helper()
	if err := tw.bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk allocator: %v", err)
	}
}

// TestAllocPagesMatchesAllocBlock checks AllocPages against as many
// AllocBlock(0) calls on seeded random histories: the same frames in
// the same order, the same free lists, links and counters (Allocs,
// Splits, AllocFails), including when memory runs out partway and when
// the fault hook vetoes the j-th frame. Odd seeds run without a fault
// hook, which takes a block's frames without running it per frame.
func TestAllocPagesMatchesAllocBlock(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		tw := newTwinBuddies(256+r.Intn(3841), seed%2 == 0)
		tw.scramble(r, 50+r.Intn(200))
		tw.mustMatch(t, "after history")
		for step := 0; step < 12; step++ {
			n := 1 + r.Intn(600)
			if r.Intn(4) == 0 {
				tw.armVeto(1 + r.Intn(n))
			}
			tw.allocBoth(t, n)
			tw.mustMatch(t, "after AllocPages")
			tw.scramble(r, r.Intn(20))
		}
		tw.audit(t)
		tw.release()
	}
}

// TestAllocPagesDrainsUntilEmpty takes more frames than memory holds:
// every frame comes out, one failure is counted, and the state matches
// the one-frame calls that ran out at the same point.
func TestAllocPagesDrainsUntilEmpty(t *testing.T) {
	tw := newTwinBuddies(1000, true)
	defer tw.release()
	if got := tw.allocBoth(t, 1200); got != 1000 {
		t.Fatalf("took %d frames of 1000", got)
	}
	tw.mustMatch(t, "after exhausting memory")
	tw.audit(t)
	if s := tw.bulk.Stats(); s.AllocFails != 1 || s.Allocs != 1000 {
		t.Fatalf("stats %+v, want 1 failure and 1000 allocs", s)
	}
}

// TestFreeRangeRunsMatchPerFrame frees ascending runs of consecutive
// frames, in shuffled run orders, with one FreeRange per run on one
// allocator and one FreeRange per frame on the other: the free lists,
// links, frame bitmaps, owners and counters must match after every
// run, and every freed frame must read as a fresh one. Runs are up to
// 192 frames long, so they start and end anywhere
// in a bitmap word and span up to three words (four when they start at
// a word's last frame); every shape of one to three words, starting
// and ending mid-word or on a word boundary, must occur. Half the
// seeds run with a fault hook installed and half without.
func TestFreeRangeRunsMatchPerFrame(t *testing.T) {
	// shapes[words spanned][starts mid-word][ends mid-word]
	var shapes [5][2][2]int
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		frames := 256 + r.Intn(3841)
		tw := newTwinBuddies(frames, seed%2 == 0)
		tw.scramble(r, 50+r.Intn(200))
		// Take a random share of the frames left, so long allocated
		// stretches exist to cut runs from.
		tw.allocBoth(t, r.Intn(int(tw.bulk.FreePages())+1))
		tw.own(r)
		tw.mustMatch(t, "after history")
		// Cut the allocated frames into ascending runs of consecutive
		// frames, up to 192 long, then free the runs in shuffled order.
		var runs []Run
		for p := 0; p < frames; {
			if !tw.bulk.phys.Allocated(arch.PFN(p)) {
				p++
				continue
			}
			run := Run{Base: arch.PFN(p)}
			for limit := 1 + r.Intn(192); run.Len < limit && p < frames && tw.bulk.phys.Allocated(arch.PFN(p)); p++ {
				run.Len++
			}
			runs = append(runs, run)
		}
		r.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		for _, run := range runs {
			words := int((run.End()-1)>>6-run.Base>>6) + 1
			shapes[words][b2i(run.Base&63 != 0)][b2i(run.End()&63 != 0)]++
			tw.bulk.FreeRange(run.Base, run.Len)
			for p := run.Base; p < run.End(); p++ {
				tw.seq.FreeRange(p, 1)
				if f := tw.bulk.phys.Frame(p); f != (Frame{}) {
					t.Fatalf("frame %d of freed run %+v is %+v, want not allocated, not movable, no owner", p, run, f)
				}
			}
			tw.mustMatch(t, "after freeing a run")
		}
		tw.audit(t)
		tw.release()
	}
	for words := 1; words <= 3; words++ {
		for start := range 2 {
			for end := range 2 {
				if shapes[words][start][end] == 0 {
					t.Errorf("no run spanned %d words with mid-word start %v and mid-word end %v", words, start == 1, end == 1)
				}
			}
		}
	}
}
