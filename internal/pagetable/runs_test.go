package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"colt/internal/arch"
)

// eventFrames is counterFrames writing each allocation and free into a
// shared event log, so frame-source calls can be ordered against the
// unmaps that caused them.
type eventFrames struct {
	*counterFrames
	log *[]string
}

func (e eventFrames) AllocFrame() (arch.PFN, error) {
	pfn, err := e.counterFrames.AllocFrame()
	if err == nil {
		*e.log = append(*e.log, fmt.Sprintf("alloc %d", pfn))
	}
	return pfn, err
}

func (e eventFrames) FreeFrame(pfn arch.PFN) {
	e.counterFrames.FreeFrame(pfn)
	*e.log = append(*e.log, fmt.Sprintf("free %d", pfn))
}

// nodeShape lists every node's frame and live count in tree order.
func nodeShape(tb *Table) []string {
	var out []string
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		out = append(out, fmt.Sprintf("L%d %d live %d", level, n.pfn, n.live))
		if level == LeafLevel {
			return
		}
		for _, c := range n.children {
			if c != nil {
				walk(c, level+1)
			}
		}
	}
	walk(tb.root, 0)
	return out
}

// TestUnmapRunMatchesUnmapLoop drives a table through UnmapRun and a
// twin through the Unmap loop it replaces, over seeded random
// operations on four 512-page blocks, one of them sometimes mapped
// huge; both twins map the same runs page by page. After each operation
// both must list the same mappings, count the same base and huge
// mappings, have the same nodes with the same live counts, and have
// logged the same frame-source calls and unmaps in the same order. The
// run side sends UnmapRun's block-emptying page through Unmap, so its
// table frames must be freed exactly where the per-page side's Unmap of
// that page frees them.
func TestUnmapRunMatchesUnmapLoop(t *testing.T) {
	const blocks = 4
	base := arch.VPN(0x2400000)
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	emptied := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var runLog, pageLog []string
		runs, err := New(eventFrames{newCounterFrames(), &runLog})
		if err != nil {
			t.Fatal(err)
		}
		pages, err := New(eventFrames{newCounterFrames(), &pageLog})
		if err != nil {
			t.Fatal(err)
		}
		nextPFN := arch.PFN(1 << 20)
		for step := 0; step < 60; step++ {
			block := base + arch.VPN(r.Intn(blocks))*fanout
			lo := block + arch.VPN(r.Intn(fanout))
			hi := lo + 1 + arch.VPN(r.Intn(int(block+fanout-lo)))
			var op string
			switch k := r.Intn(10); {
			case k < 5:
				op = fmt.Sprintf("map [%d, %d)", lo, hi)
				pfns := make([]arch.PFN, hi-lo)
				for i := range pfns {
					if r.Intn(8) == 0 {
						nextPFN += arch.PFN(r.Intn(100))
					}
					pfns[i] = nextPFN
					nextPFN++
				}
				for _, tb := range []*Table{runs, pages} {
					for i, pfn := range pfns {
						if tb.Map(lo+arch.VPN(i), arch.PTE{PFN: pfn, Attr: attr}) != nil {
							break
						}
					}
				}
			case k < 9:
				if r.Intn(2) == 0 {
					lo, hi = block, block+fanout
				}
				op = fmt.Sprintf("unmap [%d, %d)", lo, hi)
				last, ok := runs.UnmapRun(lo, hi, func(vpn arch.VPN, pfn arch.PFN) {
					runLog = append(runLog, fmt.Sprintf("unmap %d %d", vpn, pfn))
				})
				if ok {
					emptied++
					if err := runs.Unmap(last.VPN); err != nil {
						t.Fatalf("seed %d step %d: %s: Unmap of block-emptying page %d: %v", seed, step, op, last.VPN, err)
					}
					runLog = append(runLog, fmt.Sprintf("unmap %d %d", last.VPN, last.PTE.PFN))
				}
				for vpn := lo; vpn < hi; vpn++ {
					if pte, ok := pages.Lookup(vpn); ok && !pte.Huge {
						if err := pages.Unmap(vpn); err != nil {
							t.Fatal(err)
						}
						pageLog = append(pageLog, fmt.Sprintf("unmap %d %d", vpn, pte.PFN))
					}
				}
			default:
				if pte, ok := runs.Lookup(block); ok && pte.Huge {
					op = fmt.Sprintf("unmap huge %d", block)
					if e1, e2 := runs.UnmapHuge(block), pages.UnmapHuge(block); e1 != nil || e2 != nil {
						t.Fatalf("seed %d step %d: %s: %v / %v", seed, step, op, e1, e2)
					}
					break
				}
				op = fmt.Sprintf("map huge %d", block)
				pte := arch.PTE{PFN: arch.PFN(r.Intn(64)) * fanout, Attr: attr, Huge: true}
				if e1, e2 := runs.MapHuge(block, pte), pages.MapHuge(block, pte); e1 != e2 {
					t.Fatalf("seed %d step %d: %s: MapHuge %v vs %v", seed, step, op, e1, e2)
				}
			}
			if !slices.Equal(runLog, pageLog) {
				t.Fatalf("seed %d step %d: %s: event logs differ\nruns:  %v\npages: %v", seed, step, op, runLog, pageLog)
			}
			if !slices.Equal(listing(runs), listing(pages)) {
				t.Fatalf("seed %d step %d: %s: mappings differ", seed, step, op)
			}
			if runs.MappedBase() != pages.MappedBase() || runs.MappedHuge() != pages.MappedHuge() {
				t.Fatalf("seed %d step %d: %s: mapped %d/%d vs %d/%d", seed, step, op,
					runs.MappedBase(), runs.MappedHuge(), pages.MappedBase(), pages.MappedHuge())
			}
			if a, b := nodeShape(runs), nodeShape(pages); !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: %s: nodes differ\nruns:  %v\npages: %v", seed, step, op, a, b)
			}
			if issues := runs.Audit(); len(issues) > 0 {
				t.Fatalf("seed %d step %d: %s: audit: %v", seed, step, op, issues[0])
			}
		}
	}
	if emptied < 100 {
		t.Fatalf("only %d UnmapRun calls emptied a block", emptied)
	}
}

// TestUnmapRunEdges covers UnmapRun on an absent PT node, a huge
// mapping and a block edge.
func TestUnmapRunEdges(t *testing.T) {
	tb, _ := newTable(t)
	none := func(vpn arch.VPN, _ arch.PFN) { t.Fatalf("reported page %d", vpn) }
	if _, ok := tb.UnmapRun(0, fanout, none); ok {
		t.Fatal("absent PT node returned a page")
	}
	if err := tb.MapHuge(fanout, hugePTE(fanout)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.UnmapRun(fanout, 2*fanout, none); ok || tb.MappedHuge() != 1 {
		t.Fatal("UnmapRun touched a huge mapping")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UnmapRun across a block edge did not panic")
		}
	}()
	tb.UnmapRun(fanout-1, fanout+1, none)
}
