package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"colt/internal/arch"
)

// frameOp is one FrameSource call: an allocation or a free of pfn.
type frameOp struct {
	pfn   arch.PFN
	alloc bool
}

// loggedFrames is counterFrames recording every allocation and free in
// order.
type loggedFrames struct {
	*counterFrames
	log []frameOp
}

func (l *loggedFrames) AllocFrame() (arch.PFN, error) {
	pfn, err := l.counterFrames.AllocFrame()
	if err == nil {
		l.log = append(l.log, frameOp{pfn, true})
	}
	return pfn, err
}

func (l *loggedFrames) FreeFrame(pfn arch.PFN) {
	l.counterFrames.FreeFrame(pfn)
	l.log = append(l.log, frameOp{pfn, false})
}

func listing(tb *Table) []arch.Translation {
	var out []arch.Translation
	tb.Each(func(tr arch.Translation) bool {
		out = append(out, tr)
		return true
	})
	return out
}

// TestLeafHintDifferential drives a hinted table and a reference table
// in lockstep over seeded random operation sequences. The reference
// drops its hint before every operation, so it always runs the full
// descent paths; the hinted table keeps its hint across operations.
// After each operation both must return the same results and errors,
// have made the same FrameSource allocations and frees in the same
// order, list the same mappings, and count the same base and huge
// mappings. The VPNs crowd eight offsets of a few 512-page blocks (one
// block an alias of another above the 36-bit VPN range), and half the
// operations stay in the previous one's block, so hinted operations,
// emptied leaves and prunes are all frequent. MapRun maps runs of up to
// eight pages from an operation's page. An occasional injected
// allocation failure and Release/New cover the error and teardown
// paths, and restart blocks that a SplitHuge filled.
func TestLeafHintDifferential(t *testing.T) {
	blocks := []arch.VPN{0, 1, 2, fanout, fanout + 1, fanout*fanout + 1, 1<<27 | 1}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		hintFS := &loggedFrames{counterFrames: newCounterFrames()}
		refFS := &loggedFrames{counterFrames: newCounterFrames()}
		newPair := func() (*Table, *Table) {
			h, err1 := New(hintFS)
			ref, err2 := New(refFS)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			return h, ref
		}
		hinted, ref := newPair()
		block := blocks[0]
		for i := 0; i < 5000; i++ {
			if r.Intn(250) == 0 {
				hinted.Release()
				ref.Release()
				hinted, ref = newPair()
			}
			if r.Intn(2) == 0 {
				block = blocks[r.Intn(len(blocks))]
			}
			// Six low offsets plus entries 255 and 511 of the leaf.
			off := arch.VPN(r.Intn(8))
			if off >= 6 {
				off = fanout - 1 - (off-6)*fanout/2
			}
			vpn := block*fanout + off
			base := vpn &^ (arch.PagesPerHuge - 1)
			pfn := arch.PFN(r.Intn(1 << 20))
			fail := r.Intn(25) == 0
			var name string
			var op func(tb *Table) string
			switch r.Intn(17) {
			case 0:
				name, op = "Reserve", func(tb *Table) string { return fmt.Sprint(tb.Reserve(vpn)) }
			case 1, 2, 12:
				name, op = "Map", func(tb *Table) string { return fmt.Sprint(tb.Map(vpn, basePTE(pfn))) }
			case 3:
				name, op = "MapHuge", func(tb *Table) string {
					return fmt.Sprint(tb.MapHuge(base, hugePTE(pfn&^(arch.PagesPerHuge-1))))
				}
			case 4, 5, 13, 14:
				name, op = "Unmap", func(tb *Table) string { return fmt.Sprint(tb.Unmap(vpn)) }
			case 6:
				name, op = "UnmapHuge", func(tb *Table) string { return fmt.Sprint(tb.UnmapHuge(base)) }
			case 7:
				name, op = "SplitHuge", func(tb *Table) string { return fmt.Sprint(tb.SplitHuge(base)) }
			case 8:
				name, op = "Remap", func(tb *Table) string { return fmt.Sprint(tb.Remap(vpn, pfn)) }
			case 9:
				name, op = "Lookup", func(tb *Table) string { return fmt.Sprint(tb.Lookup(vpn)) }
			case 10:
				name, op = "Resolve", func(tb *Table) string { return fmt.Sprint(tb.Resolve(vpn)) }
			case 15:
				// A run of up to eight pages from vpn, inside its block.
				run := make([]arch.PFN, 1+r.Intn(min(8, int(fanout-vpn%fanout))))
				for i := range run {
					run[i] = pfn + arch.PFN(i)
				}
				name, op = "MapRun", func(tb *Table) string {
					return fmt.Sprint(tb.MapRun(vpn, run, basePTE(0).Attr))
				}
			case 11:
				name, op = "LineInto", func(tb *Table) string {
					var group [arch.PTEsPerLine]arch.Translation
					lineAddr, ok := tb.LineInto(vpn, &group)
					return fmt.Sprint(group, lineAddr, ok)
				}
			default:
				name, op = "Walk", func(tb *Table) string {
					res := tb.Walk(vpn)
					return fmt.Sprint(res.Found, res.PTE, res.Touched())
				}
			}
			hintFS.fail, refFS.fail = fail, fail
			ref.dropHint()
			want := op(ref)
			got := op(hinted)
			hintFS.fail, refFS.fail = false, false
			where := fmt.Sprintf("seed %d op %d %s(vpn %#x)", seed, i, name, uint64(vpn))
			if got != want {
				t.Fatalf("%s: hinted table returned %s, reference %s", where, got, want)
			}
			if !slices.Equal(hintFS.log, refFS.log) {
				t.Fatalf("%s: frame calls diverged:\nhinted    %v\nreference %v", where, hintFS.log, refFS.log)
			}
			if hinted.MappedBase() != ref.MappedBase() || hinted.MappedHuge() != ref.MappedHuge() {
				t.Fatalf("%s: counts base %d huge %d, reference base %d huge %d", where,
					hinted.MappedBase(), hinted.MappedHuge(), ref.MappedBase(), ref.MappedHuge())
			}
			if !slices.Equal(listing(hinted), listing(ref)) {
				t.Fatalf("%s: Each listings differ", where)
			}
		}
	}
}
