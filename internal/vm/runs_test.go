package vm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/rng"
)

// refPopulate is populate one page at a time, as it was before faults
// were served in runs: each order-0 fault runs Reserve, allocPage and
// Map.
func refPopulate(p *Process, r *Region) error {
	attr := AnonAttr
	if r.FileBacked {
		attr = FileAttr
	}
	thp := p.thpEligible(r.FileBacked, r.Pinned)
	vpn := r.Base
	remaining := r.Pages
	faults := 0
	for remaining > 0 {
		faults++
		if faults%faultTickPeriod == 0 {
			p.sys.tick()
		}
		if thp && vpn%arch.PagesPerHuge == 0 && remaining >= arch.PagesPerHuge {
			if pfn, ok := p.sys.THP.TryAllocHuge(p.PID, vpn); ok {
				if err := p.Table.MapHuge(vpn, arch.PTE{PFN: pfn, Attr: attr, Huge: true}); err != nil {
					return err
				}
				if r.huge == nil {
					r.huge = make(map[arch.VPN]bool)
				}
				r.huge[vpn] = true
				r.mapped += arch.PagesPerHuge
				vpn += arch.PagesPerHuge
				remaining -= arch.PagesPerHuge
				continue
			}
		}
		if err := p.Table.Reserve(vpn); err != nil {
			return err
		}
		pfn, err := p.sys.allocPage()
		if err != nil {
			return err
		}
		if err := p.Table.Map(vpn, arch.PTE{PFN: pfn, Attr: attr}); err != nil {
			return err
		}
		p.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: p.PID, VPN: vpn}, !r.Pinned)
		r.mapped++
		vpn++
		remaining--
	}
	return nil
}

// refMmap is mmap with refPopulate.
func refMmap(p *Process, pages int, fileBacked, pinned bool) (*Region, error) {
	r, err := p.newRegion(pages, fileBacked, pinned)
	if err != nil {
		return nil, err
	}
	if err := refPopulate(p, r); err != nil {
		p.dropRegion(r)
		return nil, err
	}
	p.sys.tick()
	return r, nil
}

// refFree is Free one page at a time, as it was before frees were taken
// in runs: each mapped base page is looked up and unmapped alone.
func refFree(p *Process, r *Region) error {
	if p.regions[r.ID] != r {
		return fmt.Errorf("vm: region %d not owned by pid %d", r.ID, p.PID)
	}
	for vpn := r.Base; vpn < r.End(); vpn++ {
		if r.huge[vpn] {
			p.freeHugeBlock(r, vpn)
			vpn += arch.PagesPerHuge - 1
			continue
		}
		if r.Mapped(vpn) {
			pte, ok := p.Table.Lookup(vpn)
			if !ok {
				panic(fmt.Sprintf("vm: region page %d not in table", vpn))
			}
			p.unmapBase(vpn, pte.PFN)
		}
	}
	delete(p.regions, r.ID)
	p.sys.tick()
	return nil
}

// diffSide is one of the two systems TestRunsMatchPerPage drives.
type diffSide struct {
	sys  *System
	proc *Process
	live []*Region
	// held are frames a background task takes one per tick and gives
	// back every third, so a tick moved within a fault stream changes
	// which frames the faults get.
	held []arch.PFN
	// perPage routes Malloc-style calls and Free through the reference.
	perPage bool
}

var errHookVeto = errors.New("injected allocation failure")

func newDiffSide(frames int, thp, hook, pressure, perPage bool, seed uint64) *diffSide {
	d := &diffSide{sys: NewSystem(Config{Frames: frames, THP: thp, Compaction: mm.CompactionNormal}), perPage: perPage}
	if hook {
		hr := rng.New(seed)
		d.sys.Buddy.SetAllocFaultHook(func(int) error {
			if hr.Bool(0.003) {
				return errHookVeto
			}
			return nil
		})
	}
	ticks := 0
	d.sys.AddBackgroundWork(func() {
		ticks++
		if ticks%3 == 0 && len(d.held) > 0 {
			d.sys.Buddy.FreeRange(d.held[0], 1)
			d.held = d.held[1:]
			return
		}
		if pfn, err := d.sys.allocPage(); err == nil {
			d.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: mm.KernelPID}, false)
			d.held = append(d.held, pfn)
		}
	})
	proc, err := d.sys.NewProcess()
	if err != nil {
		panic(err)
	}
	d.proc = proc
	if pressure {
		proc.EnableSwap()
	}
	return d
}

func (d *diffSide) mmap(pages int, fileBacked, pinned bool) error {
	var r *Region
	var err error
	if d.perPage {
		r, err = refMmap(d.proc, pages, fileBacked, pinned)
	} else {
		r, err = d.proc.mmap(pages, fileBacked, pinned)
	}
	if err == nil {
		d.live = append(d.live, r)
	}
	return err
}

func (d *diffSide) free(i int) error {
	r := d.live[i]
	d.live = slices.Delete(d.live, i, i+1)
	if d.perPage {
		return refFree(d.proc, r)
	}
	return d.proc.Free(r)
}

// diffSystems reports the first difference between the two sides'
// frames, per-order free block counts, allocator, compaction and THP
// counters, page tables and regions, or "". The order within each free
// list shows in the frames later allocations get, and drain compares
// it whole at the end of a run.
func diffSystems(a, b *diffSide) string {
	for pfn := arch.PFN(0); int(pfn) < a.sys.Phys.NumFrames(); pfn++ {
		if fa, fb := a.sys.Phys.Frame(pfn), b.sys.Phys.Frame(pfn); fa != fb {
			return fmt.Sprintf("frame %d: %+v vs %+v", pfn, fa, fb)
		}
	}
	for k := 0; k < mm.MaxOrder; k++ {
		if na, nb := a.sys.Buddy.FreeBlocksOfOrder(k), b.sys.Buddy.FreeBlocksOfOrder(k); na != nb {
			return fmt.Sprintf("order-%d free blocks %d vs %d", k, na, nb)
		}
	}
	sa, sb := a.sys.Buddy.Stats(), b.sys.Buddy.Stats()
	sa.Frees, sa.Merges, sb.Frees, sb.Merges = 0, 0, 0, 0
	if sa != sb {
		return fmt.Sprintf("buddy stats %+v vs %+v", sa, sb)
	}
	if ca, cb := a.sys.Compactor.Stats(), b.sys.Compactor.Stats(); ca != cb {
		return fmt.Sprintf("compaction stats %+v vs %+v", ca, cb)
	}
	if ta, tb := a.sys.THP.Stats(), b.sys.THP.Stats(); ta != tb {
		return fmt.Sprintf("THP stats %+v vs %+v", ta, tb)
	}
	pa, pb := a.sys.Processes(), b.sys.Processes()
	for i := range pa {
		var ma, mb []arch.Translation
		pa[i].Table.Each(func(tr arch.Translation) bool { ma = append(ma, tr); return true })
		pb[i].Table.Each(func(tr arch.Translation) bool { mb = append(mb, tr); return true })
		if !slices.Equal(ma, mb) {
			return fmt.Sprintf("pid %d page tables differ", pa[i].PID)
		}
		if issues := pa[i].Table.Audit(); len(issues) > 0 {
			return fmt.Sprintf("pid %d page table audit: %s", pa[i].PID, issues[0])
		}
	}
	for i := range a.live {
		ra, rb := a.live[i], b.live[i]
		if ra.Base != rb.Base || ra.MappedPages() != rb.MappedPages() || ra.HugeBlocks() != rb.HugeBlocks() {
			return fmt.Sprintf("region %d: base %d mapped %d huge %d vs base %d mapped %d huge %d", i,
				ra.Base, ra.MappedPages(), ra.HugeBlocks(), rb.Base, rb.MappedPages(), rb.HugeBlocks())
		}
	}
	return ""
}

// TestRunsMatchPerPage runs churn-like operation sequences (Malloc,
// MapFile, MallocPinned, Free, FreePages and Idle) on two systems, one
// faulting and freeing in runs and the other through the per-page
// reference above, with THP on and off, with and without a buddy fault
// hook, and under memory pressure with a swap reclaimer. A background
// task allocates and frees a frame on every tick, so a tick that moved
// within a fault stream would change the frames. After each operation
// the frames, owners, free lists, counters, page tables and regions
// must match.
func TestRunsMatchPerPage(t *testing.T) {
	for _, thp := range []bool{false, true} {
		for _, hook := range []bool{false, true} {
			for _, pressure := range []bool{false, true} {
				name := fmt.Sprintf("thp=%v/hook=%v/pressure=%v", thp, hook, pressure)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						runDifferential(t, thp, hook, pressure, seed)
					}
				})
			}
		}
	}
}

func runDifferential(t *testing.T, thp, hook, pressure bool, seed uint64) {
	frames := 8192
	if pressure {
		frames = 3072
	}
	runs := newDiffSide(frames, thp, hook, pressure, false, seed)
	pages := newDiffSide(frames, thp, hook, pressure, true, seed)
	defer runs.sys.Release()
	defer pages.sys.Release()
	r := rng.New(seed * 7919)
	for step := 0; step < 120; step++ {
		var op string
		var errRuns, errPages error
		switch k := r.Intn(12); {
		case k < 5 || len(runs.live) == 0:
			n := r.IntRange(1, 96)
			if r.Bool(0.3) {
				n = r.IntRange(300, 1300)
			}
			file, pinned := r.Bool(0.2), r.Bool(0.1)
			op = fmt.Sprintf("mmap(%d, file=%v, pinned=%v)", n, file, pinned)
			errRuns, errPages = runs.mmap(n, file, pinned), pages.mmap(n, file, pinned)
		case k < 9:
			i := r.Intn(len(runs.live))
			op = fmt.Sprintf("Free(region %d)", i)
			errRuns, errPages = runs.free(i), pages.free(i)
		case k < 11:
			i := r.Intn(len(runs.live))
			reg := runs.live[i]
			off := r.Intn(reg.Pages)
			n := r.IntRange(1, min(8, reg.Pages-off))
			op = fmt.Sprintf("FreePages(region %d, %d, %d)", i, off, n)
			errRuns = runs.proc.FreePages(reg, off, n)
			errPages = pages.proc.FreePages(pages.live[i], off, n)
		default:
			slots := r.IntRange(1, 20)
			op = fmt.Sprintf("Idle(%d)", slots)
			runs.sys.Idle(slots)
			pages.sys.Idle(slots)
		}
		if fmt.Sprint(errRuns) != fmt.Sprint(errPages) {
			t.Fatalf("seed %d step %d: %s: error %v, per-page %v", seed, step, op, errRuns, errPages)
		}
		if d := diffSystems(runs, pages); d != "" {
			t.Fatalf("seed %d step %d: %s: %s", seed, step, op, d)
		}
	}
	a, b := drain(runs.sys.Buddy), drain(pages.sys.Buddy)
	if i := firstDiff(a, b); i >= 0 {
		t.Fatalf("seed %d: draining the free lists: frame %d of %d/%d differs", seed, i, len(a), len(b))
	}
}

// drain takes every free frame with AllocBlock(0), fault hook removed,
// and returns them in the order they came out. That order spells out
// every free list in list order: the order-0 list first, then each
// order-1 block front to back, and so on up.
func drain(b *mm.Buddy) []arch.PFN {
	b.SetAllocFaultHook(nil)
	var out []arch.PFN
	for {
		pfn, err := b.AllocBlock(0)
		if err != nil {
			return out
		}
		out = append(out, pfn)
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []arch.PFN) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
