package pagetable

import (
	"errors"
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

// requireTwins fails t unless a table driven by run calls and its twin
// driven by page calls have logged the same events, list the same
// mappings, count the same base and huge mappings and have the same
// nodes with the same live counts, and the run side passes its audit.
func requireTwins(t *testing.T, where string, runs, pages *Table, runLog, pageLog []string) {
	t.Helper()
	if !slices.Equal(runLog, pageLog) {
		t.Fatalf("%s: event logs differ\nruns:  %v\npages: %v", where, runLog, pageLog)
	}
	if !slices.Equal(listing(runs), listing(pages)) {
		t.Fatalf("%s: mappings differ", where)
	}
	if runs.MappedBase() != pages.MappedBase() || runs.MappedHuge() != pages.MappedHuge() {
		t.Fatalf("%s: mapped %d/%d vs %d/%d", where,
			runs.MappedBase(), runs.MappedHuge(), pages.MappedBase(), pages.MappedHuge())
	}
	if a, b := nodeShape(runs), nodeShape(pages); !slices.Equal(a, b) {
		t.Fatalf("%s: nodes differ\nruns:  %v\npages: %v", where, a, b)
	}
	if issues := runs.Audit(); len(issues) > 0 {
		t.Fatalf("%s: audit: %v", where, issues[0])
	}
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
			requireTwins(t, fmt.Sprintf("seed %d step %d: %s", seed, step, op), runs, pages, runLog, pageLog)
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

// walkString renders a walk of vpn: what it found and every entry
// address it read.
func walkString(tb *Table, vpn arch.VPN) string {
	res := tb.Walk(vpn)
	return fmt.Sprint(res.Found, res.PTE, res.Touched())
}

// TestMapRunMatchesMapLoop maps seeded random runs with one MapRun on
// one table and a Map per page on a twin, over four 512-page blocks
// whose PT nodes come and go (page unmaps empty and prune them, and a
// block is sometimes mapped huge). After each operation both must
// return the same error, list the same mappings, count the same base
// and huge mappings, have the same nodes with the same live counts,
// and have logged the same frame-source calls in the same order. A
// page of each run is walked before the map, so the walk memo holds
// its old result, and again after: both tables must report the same
// walk. An occasional injected allocation failure covers the error
// path. A run over a mapped page returns ErrAlreadyMapped and maps
// nothing, where the Map loop maps the pages before the first mapped
// one; the twin unmaps those pages again (the mapped page keeps the
// node live, so nothing prunes).
func TestMapRunMatchesMapLoop(t *testing.T) {
	const blocks = 4
	base := arch.VPN(0x2400000)
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	var built, overlaps, failed int
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var runLog, pageLog []string
		runFS, pageFS := newCounterFrames(), newCounterFrames()
		runs, err := New(eventFrames{runFS, &runLog})
		if err != nil {
			t.Fatal(err)
		}
		pages, err := New(eventFrames{pageFS, &pageLog})
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
			case k < 6:
				op = fmt.Sprintf("map [%d, %d)", lo, hi)
				pfns := make([]arch.PFN, hi-lo)
				for i := range pfns {
					if r.Intn(8) == 0 {
						nextPFN += arch.PFN(r.Intn(100))
					}
					pfns[i] = nextPFN
					nextPFN++
				}
				probe := lo + arch.VPN(r.Intn(len(pfns)))
				walkString(runs, probe)
				walkString(pages, probe)
				fail := r.Intn(20) == 0
				runFS.fail, pageFS.fail = fail, fail
				logged := len(runLog)
				got := runs.MapRun(lo, pfns, attr)
				var want error
				mapped := 0
				for i, pfn := range pfns {
					if want = pages.Map(lo+arch.VPN(i), arch.PTE{PFN: pfn, Attr: attr}); want != nil {
						break
					}
					mapped++
				}
				runFS.fail, pageFS.fail = false, false
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: %s: MapRun returned %v, Map loop %v", seed, step, op, got, want)
				}
				switch {
				case errors.Is(want, ErrAlreadyMapped):
					overlaps++
					for i := range mapped {
						if err := pages.Unmap(lo + arch.VPN(i)); err != nil {
							t.Fatal(err)
						}
					}
				case want != nil:
					failed++
				case len(runLog) > logged:
					built++
				}
				if a, b := walkString(runs, probe), walkString(pages, probe); a != b {
					t.Fatalf("seed %d step %d: %s: walk of %d after the map: %s, Map loop %s", seed, step, op, probe, a, b)
				}
			case k < 9:
				op = fmt.Sprintf("unmap [%d, %d)", lo, hi)
				for vpn := lo; vpn < hi; vpn++ {
					if pte, ok := pages.Lookup(vpn); ok && !pte.Huge {
						if e1, e2 := runs.Unmap(vpn), pages.Unmap(vpn); e1 != nil || e2 != nil {
							t.Fatalf("seed %d step %d: %s: Unmap(%d): %v / %v", seed, step, op, vpn, e1, e2)
						}
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
			requireTwins(t, fmt.Sprintf("seed %d step %d: %s", seed, step, op), runs, pages, runLog, pageLog)
		}
	}
	if built < 100 || overlaps < 100 || failed < 20 {
		t.Fatalf("too little coverage: %d runs built a PT node, %d overlapped, %d failed", built, overlaps, failed)
	}
}

// TestMapRunEdges covers MapRun's refusals: an empty run changes
// nothing (not even the table frames), a run with non-present
// attributes is an error, a run over a huge mapping conflicts, and a
// run across a block edge panics. An overlapping run leaves every
// mapping, live count and walk as it was.
func TestMapRunEdges(t *testing.T) {
	tb, fs := newTable(t)
	if err := tb.MapRun(0, nil, basePTE(0).Attr); err != nil || fs.next != 1001 {
		t.Fatalf("empty run: %v, next table frame %d", err, fs.next)
	}
	if err := tb.MapRun(0, []arch.PFN{7}, arch.AttrWritable); err == nil || tb.MappedBase() != 0 {
		t.Fatalf("non-present run: %v, %d mapped", err, tb.MappedBase())
	}
	if err := tb.MapHuge(fanout, hugePTE(fanout)); err != nil {
		t.Fatal(err)
	}
	if err := tb.MapRun(fanout+3, []arch.PFN{7, 8}, basePTE(0).Attr); err != ErrHugeConflict {
		t.Fatalf("run over a huge mapping: %v", err)
	}
	if err := tb.Map(5, basePTE(50)); err != nil {
		t.Fatal(err)
	}
	before, shape := listing(tb), nodeShape(tb)
	walk := walkString(tb, 4)
	if err := tb.MapRun(2, []arch.PFN{20, 30, 40, 50}, basePTE(0).Attr); err != ErrAlreadyMapped {
		t.Fatalf("overlapping run: %v", err)
	}
	if !slices.Equal(listing(tb), before) || !slices.Equal(nodeShape(tb), shape) || tb.MappedBase() != 1 || walkString(tb, 4) != walk {
		t.Fatalf("an overlapping run changed the table: %v", listing(tb))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MapRun across a block edge did not panic")
		}
	}()
	tb.MapRun(fanout-1, []arch.PFN{1, 2}, basePTE(0).Attr)
}
