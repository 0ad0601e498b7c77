package vm

import (
	"fmt"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/rng"
)

// The swapper models demand paging under memory oversubscription: when
// the system cannot satisfy a fault, scattered pages of swap-enabled
// processes are evicted (their frames freed, the PTEs cleared, TLB
// entries shot down) and re-faulted on the next touch. This is the
// mechanism behind the paper's memhog(50) observation that heavy load
// "causes page fault rates to greatly increase" and collapses the
// contiguity of thrashing working sets.

// swapChunkPages is the eviction granularity: small and scattered, like
// LRU swap-out.
const swapChunkPages = 2

type swapChunk struct {
	reg *Region
	off int
}

// EnableSwap registers the process as an eviction victim for OOM
// reclaim. The benchmark process and memhog both enable it; the churn
// load (whose pages model long-lived daemons) does not.
func (p *Process) EnableSwap() {
	if p.swapEnabled {
		return
	}
	p.swapEnabled = true
	p.sys.AddReclaimer(p.swapOut)
}

// swapOut evicts up to n pages in shuffled small chunks, returning the
// number evicted.
func (p *Process) swapOut(n int) int {
	freed := 0
	attemptsSinceProgress := 0
	for freed < n {
		if len(p.swapChunks) == 0 {
			if !p.rebuildSwapChunks() {
				return freed
			}
			attemptsSinceProgress = 0
		}
		c := p.swapChunks[len(p.swapChunks)-1]
		p.swapChunks = p.swapChunks[:len(p.swapChunks)-1]
		freed += p.swapOutChunk(c)
		if freed == 0 {
			attemptsSinceProgress++
			if attemptsSinceProgress > len(p.swapChunks)+1 {
				return freed
			}
		}
	}
	return freed
}

// swapOutChunk evicts the mapped pages of one chunk.
func (p *Process) swapOutChunk(c swapChunk) int {
	if p.regions[c.reg.ID] != c.reg {
		return 0 // region was freed since the chunk list was built
	}
	evicted := 0
	for i := 0; i < swapChunkPages && c.off+i < c.reg.Pages; i++ {
		vpn := c.reg.Base + arch.VPN(c.off+i)
		if !c.reg.Mapped(vpn) {
			continue
		}
		// Hugepage-backed pages need a split first; skip them if the
		// split cannot get a table frame right now.
		hb := vpn &^ (arch.PagesPerHuge - 1)
		if c.reg.huge[hb] {
			if err := p.splitHugeAt(hb); err != nil {
				continue
			}
		}
		pte, ok := p.Table.Lookup(vpn)
		if !ok || pte.Huge {
			continue
		}
		p.unmapBase(vpn, pte.PFN)
		if c.reg.swapped == nil {
			c.reg.swapped = make(map[arch.VPN]bool)
		}
		c.reg.swapped[vpn] = true
		c.reg.mapped--
		evicted++
	}
	return evicted
}

// rebuildSwapChunks refreshes the shuffled eviction order from the
// current regions. Returns false when there is nothing to evict.
func (p *Process) rebuildSwapChunks() bool {
	p.swapRebuilds++
	var chunks []swapChunk
	for _, reg := range p.Regions() {
		if reg.Pinned || reg.MappedPages() == 0 {
			continue
		}
		for off := 0; off < reg.Pages; off += swapChunkPages {
			chunks = append(chunks, swapChunk{reg: reg, off: off})
		}
	}
	if len(chunks) == 0 {
		return false
	}
	r := rng.New(uint64(p.PID)*0x9e3779b9 + p.swapRebuilds)
	for i := len(chunks) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		chunks[i], chunks[j] = chunks[j], chunks[i]
	}
	p.swapChunks = chunks
	return true
}

// EnsureResident re-faults vpn if it was swapped out, allocating a new
// frame (a major fault). Returns true if a swap-in happened.
func (p *Process) EnsureResident(vpn arch.VPN) (bool, error) {
	var reg *Region
	for _, r := range p.Regions() {
		if r.Swapped(vpn) {
			reg = r
			break
		}
	}
	if reg == nil {
		return false, nil
	}
	pfn, err := p.sys.allocPage()
	if err != nil {
		return false, fmt.Errorf("vm: swap-in of vpn %d: %w", vpn, err)
	}
	attr := AnonAttr
	if reg.FileBacked {
		attr = FileAttr
	}
	if err := p.Table.Reserve(vpn); err != nil {
		p.sys.Buddy.FreeRange(pfn, 1)
		return false, err
	}
	if err := p.Table.Map(vpn, arch.PTE{PFN: pfn, Attr: attr}); err != nil {
		p.sys.Buddy.FreeRange(pfn, 1)
		return false, err
	}
	p.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: p.PID, VPN: vpn}, true)
	delete(reg.swapped, vpn)
	reg.mapped++
	p.sys.majorFaults++
	return true, nil
}
