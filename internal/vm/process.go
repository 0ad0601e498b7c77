package vm

import (
	"fmt"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/pagetable"
)

// heapBase is the first heap VPN (0x10000000000 >> 12), leaving low
// virtual memory unused as a real process layout would.
const heapBase arch.VPN = 0x10000000

// faultTickPeriod: how many demand faults between yields to background
// system activity during a large region population.
const faultTickPeriod = 384

// Attribute sets for the two mapping kinds. They differ deliberately:
// CoLT only coalesces translations with identical attributes, so
// file-backed pages never coalesce with anonymous heap pages —
// mirroring the paper's observation that file-backed pages are also not
// THP candidates (§6.1).
const (
	AnonAttr = arch.AttrPresent | arch.AttrWritable | arch.AttrUser | arch.AttrAccessed
	FileAttr = arch.AttrPresent | arch.AttrUser | arch.AttrAccessed | arch.AttrFileBacked
)

// Region is one mmap/malloc area of a process's address space.
type Region struct {
	ID         int
	Base       arch.VPN
	Pages      int
	FileBacked bool
	// Pinned regions' frames are unmovable (kernel allocations, page
	// cache, slab): the obstacles that prevent the compaction daemon
	// from manufacturing arbitrarily large free blocks (§3.2.2).
	Pinned bool

	proc *Process
	// The three page sets start nil and are made by their first write:
	// a nil map reads as empty, and most regions never write one.
	//
	// huge tracks the base VPNs currently mapped by a 2 MB PTE.
	huge map[arch.VPN]bool
	// freed marks pages released early by FreePages.
	freed map[arch.VPN]bool
	// swapped marks pages evicted by the swapper; they re-fault on the
	// next touch (EnsureResident).
	swapped map[arch.VPN]bool
	mapped  int
}

// End returns one past the region's last VPN.
func (r *Region) End() arch.VPN { return r.Base + arch.VPN(r.Pages) }

// MappedPages returns how many of the region's pages are still mapped.
func (r *Region) MappedPages() int { return r.mapped }

// HugeBlocks returns how many 2 MB mappings currently back the region.
func (r *Region) HugeBlocks() int { return len(r.huge) }

// Contains reports whether vpn lies inside the region.
func (r *Region) Contains(vpn arch.VPN) bool { return vpn >= r.Base && vpn < r.End() }

// Mapped reports whether the region page at vpn is currently mapped
// (not freed and not swapped out).
func (r *Region) Mapped(vpn arch.VPN) bool {
	return r.Contains(vpn) && !r.freed[vpn] && !r.swapped[vpn]
}

// Swapped reports whether the region page at vpn is swapped out.
func (r *Region) Swapped(vpn arch.VPN) bool { return r.Contains(vpn) && r.swapped[vpn] }

// Process is one simulated process: a page table plus its regions.
type Process struct {
	PID   int
	sys   *System
	Table *pagetable.Table

	regions      map[int]*Region
	regionOrder  []int
	nextRegionID int
	nextVPN      arch.VPN
	exited       bool

	swapEnabled  bool
	swapChunks   []swapChunk
	swapRebuilds uint64
}

// Regions returns the live regions in creation order.
func (p *Process) Regions() []*Region {
	out := make([]*Region, 0, len(p.regionOrder))
	for _, id := range p.regionOrder {
		if r, ok := p.regions[id]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Malloc allocates an anonymous region of the given page count and
// faults every page in immediately. The application-visible request is
// for pages-many pages at once (paper §3.2.1's malloc of an N-page data
// structure); physically each page is an order-0 fault, and contiguity
// arises because consecutive faults drain consecutive frames from the
// buddy allocator's split blocks.
func (p *Process) Malloc(pages int) (*Region, error) {
	return p.mmap(pages, false, false)
}

// MallocBytes allocates an anonymous region of at least the given size.
func (p *Process) MallocBytes(bytes uint64) (*Region, error) {
	pages := int((bytes + arch.PageSize - 1) / arch.PageSize)
	return p.Malloc(pages)
}

// MapFile allocates a file-backed region (never THP-backed, read-only
// attributes).
func (p *Process) MapFile(pages int) (*Region, error) {
	return p.mmap(pages, true, false)
}

// MallocPinned allocates an anonymous region whose frames are pinned
// (unmovable by compaction), modeling kernel-side allocations.
func (p *Process) MallocPinned(pages int) (*Region, error) {
	return p.mmap(pages, false, true)
}

func (p *Process) mmap(pages int, fileBacked, pinned bool) (*Region, error) {
	r, err := p.newRegion(pages, fileBacked, pinned)
	if err != nil {
		return nil, err
	}
	if err := p.populate(r); err != nil {
		p.dropRegion(r)
		return nil, err
	}
	p.sys.tick()
	return r, nil
}

// newRegion places and registers an unpopulated region. Registering
// comes before populating: concurrent daemon activity during the fault
// stream (THP pressure splits, swap-out) must see the region.
func (p *Process) newRegion(pages int, fileBacked, pinned bool) (*Region, error) {
	if p.exited {
		return nil, fmt.Errorf("vm: pid %d has exited", p.PID)
	}
	if pages <= 0 {
		return nil, fmt.Errorf("vm: region must have pages, got %d", pages)
	}
	base := p.nextVPN
	// Large anonymous regions are 2 MB-aligned in virtual memory so THP
	// has alignment opportunities (glibc behaves this way for big
	// arenas).
	if p.thpEligible(fileBacked, pinned) && pages >= arch.PagesPerHuge {
		base = alignUp(base, arch.PagesPerHuge)
	}
	r := &Region{
		ID:         p.nextRegionID,
		Base:       base,
		Pages:      pages,
		FileBacked: fileBacked,
		Pinned:     pinned,
		proc:       p,
	}
	p.nextVPN = base + arch.VPN(pages)
	p.regions[r.ID] = r
	p.regionOrder = append(p.regionOrder, r.ID)
	p.nextRegionID++
	return r, nil
}

// dropRegion unregisters the newest region after its population
// failed, releasing whatever populate managed to map.
func (p *Process) dropRegion(r *Region) {
	p.teardown(r)
	delete(p.regions, r.ID)
	p.regionOrder = p.regionOrder[:len(p.regionOrder)-1]
}

func (p *Process) thpEligible(fileBacked, pinned bool) bool {
	return p.sys.THP.Enabled() && !fileBacked && !pinned
}

// populate faults in every page of the region: a 2 MB-aligned fault in
// a large-enough anonymous region first tries THP (which may invoke
// direct compaction); everything else is an order-0 demand fault.
//
// The order-0 faults are served in runs, each ending before the next
// background tick and at the end of its 512-page PT block. Reserve on a
// run's first page builds the block's PT node, and nothing else runs
// between the faults of a run, so its data frames are the only
// allocations: one AllocPages takes them, exactly as the per-page path
// (Reserve, allocPage, Map) would, and mapRun installs them. THP
// attempts happen only at 512-aligned pages, which start a block and so
// start a run.
func (p *Process) populate(r *Region) error {
	attr := AnonAttr
	if r.FileBacked {
		attr = FileAttr
	}
	thp := p.thpEligible(r.FileBacked, r.Pinned)
	vpn := r.Base
	remaining := r.Pages
	faults := 0
	var frames [faultTickPeriod]arch.PFN
	for remaining > 0 {
		// Large populations yield to concurrent system activity
		// periodically, the way a real fault stream interleaves with
		// other processes and daemons.
		faults++
		if faults%faultTickPeriod == 0 {
			p.sys.tick()
		}
		if thp && vpn%arch.PagesPerHuge == 0 && remaining >= arch.PagesPerHuge {
			if pfn, ok := p.sys.THP.TryAllocHuge(p.PID, vpn); ok {
				err := p.Table.MapHuge(vpn, arch.PTE{PFN: pfn, Attr: attr, Huge: true})
				if err != nil {
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
		// Table pages first, then the data frames, so consecutive
		// faults keep draining consecutive frames.
		if err := p.Table.Reserve(vpn); err != nil {
			return err
		}
		run := min(remaining, faultTickPeriod-faults%faultTickPeriod, arch.PagesPerHuge-int(vpn%arch.PagesPerHuge))
		got, err := p.sys.Buddy.AllocPages(frames[:run])
		if err := p.mapRun(r, vpn, frames[:got], attr); err != nil {
			return err
		}
		vpn += arch.VPN(got)
		remaining -= got
		faults += got - 1
		if err == nil {
			continue
		}
		if err != mm.ErrOutOfMemory {
			return err
		}
		// Fault number got of the run found memory exhausted, and
		// AllocPages has counted that failure: finish it as allocPage
		// finishes a first attempt.
		faults++
		pfn, err := p.sys.reclaimAndRetry()
		if err != nil {
			return err
		}
		if err := p.mapRun(r, vpn, []arch.PFN{pfn}, attr); err != nil {
			return err
		}
		vpn++
		remaining--
	}
	return nil
}

// mapRun maps r's pages from vpn to the just-faulted frames pfns, one
// Map each (the leaf hint that Reserve left spares them the descent),
// and records their owner.
func (p *Process) mapRun(r *Region, vpn arch.VPN, pfns []arch.PFN, attr arch.Attr) error {
	for i, pfn := range pfns {
		page := vpn + arch.VPN(i)
		if err := p.Table.Map(page, arch.PTE{PFN: pfn, Attr: attr}); err != nil {
			return err
		}
		p.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: p.PID, VPN: page}, !r.Pinned)
		r.mapped++
	}
	return nil
}

// teardown releases whatever populate managed to map before failing.
func (p *Process) teardown(r *Region) {
	for vpn := r.Base; vpn < r.End(); vpn++ {
		if r.huge[vpn] {
			p.freeHugeBlock(r, vpn)
		}
		if pte, ok := p.Table.Lookup(vpn); ok && !pte.Huge {
			p.unmapBase(vpn, pte.PFN)
		}
	}
}

// Free releases the whole region, one PT block at a time in ascending
// page order. A huge block goes through freeHugeBlock. A block of base
// pages loses its mappings in one UnmapRun, and each ascending run of
// consecutive frames goes back in one FreeRange, which leaves the free
// lists exactly as freeing them one at a time in page order would.
// Shootdowns commute with buddy frees, so each page raises its own as
// it is unmapped. The page whose removal empties the block goes last,
// through unmapBase, so the emptied table frames are freed after the
// block's other data frames and before its own, as per-page unmapping
// frees them.
func (p *Process) Free(r *Region) error {
	if p.regions[r.ID] != r {
		return fmt.Errorf("vm: region %d not owned by pid %d", r.ID, p.PID)
	}
	removed := 0
	var run mm.Run
	flush := func() {
		if run.Len > 0 {
			p.sys.Buddy.FreeRange(run.Base, run.Len)
			run.Len = 0
		}
	}
	unmapped := func(vpn arch.VPN, pfn arch.PFN) {
		removed++
		if run.Len == 0 || pfn != run.End() {
			flush()
			run.Base = pfn
		}
		run.Len++
		p.sys.shootdown(p.PID, vpn)
	}
	for block := r.Base &^ (arch.PagesPerHuge - 1); block < r.End(); block += arch.PagesPerHuge {
		if r.huge[block] {
			p.freeHugeBlock(r, block)
			continue
		}
		lo, hi := max(block, r.Base), min(block+arch.PagesPerHuge, r.End())
		last, ok := p.Table.UnmapRun(lo, hi, unmapped)
		flush()
		if ok {
			removed++
			p.unmapBase(last.VPN, last.PTE.PFN)
		}
	}
	if removed != r.mapped {
		panic(fmt.Sprintf("vm: freeing region %d unmapped %d base pages, but %d were mapped", r.ID, removed, r.mapped))
	}
	delete(p.regions, r.ID)
	p.sys.tick()
	return nil
}

// FreePages releases n pages starting at page offset off within the
// region — the partial frees that fragment physical memory. Hugepage
// mappings overlapping the range are split first (keeping the remainder
// of their contiguity, as THP splitting does).
func (p *Process) FreePages(r *Region, off, n int) error {
	if p.regions[r.ID] != r {
		return fmt.Errorf("vm: region %d not owned by pid %d", r.ID, p.PID)
	}
	if off < 0 || n <= 0 || off+n > r.Pages {
		return fmt.Errorf("vm: FreePages(%d, %d) out of region of %d pages", off, n, r.Pages)
	}
	start := r.Base + arch.VPN(off)
	end := start + arch.VPN(n)
	// Split any hugepage overlapping the range.
	for hb := start &^ (arch.PagesPerHuge - 1); hb < end; hb += arch.PagesPerHuge {
		if r.huge[hb] {
			if err := p.splitHugeAt(hb); err != nil {
				return fmt.Errorf("vm: FreePages needs a hugepage split: %w", err)
			}
		}
	}
	for vpn := start; vpn < end; vpn++ {
		if r.swapped[vpn] {
			// Swapped pages have no frame; freeing them just discards
			// the swap slot.
			delete(r.swapped, vpn)
			r.markFreed(vpn)
			continue
		}
		if !r.Mapped(vpn) {
			continue
		}
		pte, ok := p.Table.Lookup(vpn)
		if !ok || pte.Huge {
			panic(fmt.Sprintf("vm: inconsistent mapping at %d", vpn))
		}
		p.unmapBase(vpn, pte.PFN)
		r.markFreed(vpn)
		r.mapped--
	}
	p.sys.tick()
	return nil
}

// markFreed records vpn as released by FreePages.
func (r *Region) markFreed(vpn arch.VPN) {
	if r.freed == nil {
		r.freed = make(map[arch.VPN]bool)
	}
	r.freed[vpn] = true
}

// unmapBase removes one base mapping, frees its frame, and raises a
// shootdown.
func (p *Process) unmapBase(vpn arch.VPN, pfn arch.PFN) {
	if err := p.Table.Unmap(vpn); err != nil {
		panic(fmt.Sprintf("vm: unmap %d: %v", vpn, err))
	}
	p.sys.Buddy.FreeRange(pfn, 1)
	p.sys.shootdown(p.PID, vpn)
}

// freeHugeBlock unmaps and frees one live 2 MB mapping of the region.
func (p *Process) freeHugeBlock(r *Region, baseVPN arch.VPN) {
	pte, ok := p.Table.Lookup(baseVPN)
	if !ok || !pte.Huge {
		panic(fmt.Sprintf("vm: huge block at %d not mapped huge", baseVPN))
	}
	if err := p.Table.UnmapHuge(baseVPN); err != nil {
		panic(err)
	}
	p.sys.THP.Release(p.PID, baseVPN)
	p.sys.Buddy.FreeRange(pte.PFN, arch.PagesPerHuge)
	delete(r.huge, baseVPN)
	r.mapped -= arch.PagesPerHuge
	p.sys.shootdown(p.PID, baseVPN)
}

// splitHugeAt demotes the process's 2 MB mapping at baseVPN into 512
// base PTEs over the same frames. Called by THP's pressure daemon and
// by partial frees. Splitting needs one table frame, so it can fail
// under OOM; the mapping is left intact in that case.
func (p *Process) splitHugeAt(baseVPN arch.VPN) error {
	if err := p.Table.SplitHuge(baseVPN); err != nil {
		return err
	}
	p.sys.THP.Release(p.PID, baseVPN)
	// Frames become movable base pages again.
	pte, _ := p.Table.Lookup(baseVPN)
	for i := 0; i < arch.PagesPerHuge; i++ {
		p.sys.Phys.SetOwner(pte.PFN+arch.PFN(i), mm.PageOwner{PID: p.PID, VPN: baseVPN + arch.VPN(i)}, true)
	}
	for _, r := range p.regions {
		if r.huge[baseVPN] {
			delete(r.huge, baseVPN)
		}
	}
	p.sys.shootdown(p.PID, baseVPN)
	return nil
}

// Exit frees every region and the page table.
func (p *Process) Exit() {
	if p.exited {
		return
	}
	for _, r := range p.Regions() {
		if err := p.Free(r); err != nil {
			panic(err)
		}
	}
	p.Table.Release()
	p.exited = true
	delete(p.sys.procs, p.PID)
}

// Resolve translates a VPN through the process page table.
func (p *Process) Resolve(vpn arch.VPN) (arch.PFN, arch.Attr, bool) {
	return p.Table.Resolve(vpn)
}

func alignUp(v arch.VPN, align arch.VPN) arch.VPN {
	return (v + align - 1) &^ (align - 1)
}
