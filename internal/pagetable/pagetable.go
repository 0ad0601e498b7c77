// Package pagetable implements an x86-64-style four-level radix page
// table whose interior nodes are backed by simulated physical frames.
// Because every PTE therefore has a concrete physical address, the page
// walker can model PTE fetches through the cache hierarchy, and the
// coalescing logic can see exactly the eight PTEs sharing the 64-byte
// cache line brought in by a walk — the opportunity window CoLT
// exploits (paper §4.1.4).
package pagetable

import (
	"errors"
	"fmt"
	"sync"

	"colt/internal/arch"
	"colt/internal/telemetry"
)

// Geometry of the radix tree: 4 levels of 9 bits cover a 48-bit virtual
// address space (36-bit VPNs).
const (
	Levels       = 4
	bitsPerLevel = 9
	fanout       = 1 << bitsPerLevel
	indexMask    = fanout - 1
	// LeafLevel is the level holding 4 KB PTEs; HugeLevel (the PMD)
	// holds 2 MB mappings.
	LeafLevel = Levels - 1
	HugeLevel = Levels - 2
)

// FrameSource supplies physical frames for page-table nodes. The VM
// layer adapts the buddy allocator; tests may use a simple counter.
type FrameSource interface {
	AllocFrame() (arch.PFN, error)
	FreeFrame(arch.PFN)
}

// Mapping errors.
var (
	ErrAlreadyMapped = errors.New("pagetable: virtual page already mapped")
	ErrNotMapped     = errors.New("pagetable: virtual page not mapped")
	ErrHugeConflict  = errors.New("pagetable: range conflicts with an existing mapping")
)

// node is one radix-tree table, occupying one simulated frame.
type node struct {
	pfn      arch.PFN
	children [fanout]*node    // interior links (levels 0..2)
	ptes     [fanout]arch.PTE // leaf PTEs (level 3) or huge PTEs (level 2)
	live     int              // number of present children+ptes, for pruning
}

// nodePool recycles the ~16 KB nodes of released tables: a simulation job
// builds its page tables from scratch, and the next job takes the
// nodes the last one released.
var nodePool sync.Pool

// newNode returns an empty node for the table frame pfn, cleared if it
// came from the pool, so a recycled node is indistinguishable from a
// fresh one.
func newNode(pfn arch.PFN) *node {
	if n, _ := nodePool.Get().(*node); n != nil {
		*n = node{pfn: pfn}
		return n
	}
	return &node{pfn: pfn}
}

// Table is one process's page table. It is not safe for concurrent
// use, reads included: Walk fills the walk memo and every descent
// updates the leaf hint, so one goroutine owns a Table.
type Table struct {
	frames FrameSource
	root   *node
	// mappedBase counts 4 KB mappings; mappedHuge counts 2 MB mappings.
	mappedBase int
	mappedHuge int
	// walkDepth, when attached, observes the level count of every Walk
	// (nil-safe, allocation-free — Walk is on the hot path).
	walkDepth *telemetry.Hist
	// Walk memo: the simulator walks the same VPN once per TLB variant
	// that missed on it while the table is guaranteed unchanged
	// (mutations happen between references), and variants that miss on
	// a VPN again a few references later repeat the walk — so the memo
	// is a small direct-mapped table rather than a single entry. A walk
	// is a pure read, so replaying a recorded result is exact; every
	// mutator advances memoGen, which invalidates all entries at once.
	// The table is allocated on first Walk so tables off the hot path
	// pay nothing.
	memo    *walkMemo
	memoGen uint64
	// Leaf hint: the PT-level node the last full descent reached, and
	// its 512-page block (vpn >> 9). Faults, frees and migrations visit
	// consecutive pages, so an operation in the same block as the last
	// one skips the three-level descent. A PT node leaves its block only
	// when prune frees it or Release frees the tree, and both clear the
	// hint, so a hinted node is always the one a descent would reach.
	// walkTo never consults it: a walk reports every level's entry
	// address.
	hint      *node
	hintBlock arch.VPN
}

// walkMemoSize is the direct-mapped walk memo's entry count (power of
// two): the distinct VPNs of the last few hundred walks.
const walkMemoSize = 512

type walkMemo struct {
	vpn [walkMemoSize]arch.VPN
	gen [walkMemoSize]uint64 // entry valid iff gen matches Table.memoGen
	res [walkMemoSize]WalkResult
}

// hinted returns vpn's PT-level node when it is the hinted one, nil
// otherwise.
func (t *Table) hinted(vpn arch.VPN) *node {
	if t.hint != nil && vpn>>bitsPerLevel == t.hintBlock {
		return t.hint
	}
	return nil
}

// setHint records leaf as the PT-level node of vpn's block.
func (t *Table) setHint(leaf *node, vpn arch.VPN) {
	t.hint, t.hintBlock = leaf, vpn>>bitsPerLevel
}

// dirty invalidates the walk memo; every mutating method calls it
// first (unconditionally, so error paths stay conservative). memoGen
// starts above zero so a zero-valued memo entry can never match.
func (t *Table) dirty() { t.memoGen++ }

// SetWalkDepthHist attaches a histogram observing each Walk's depth in
// levels (4 = full walk to a base PTE, 3 = huge leaf, fewer = hole).
// Pass nil to detach.
func (t *Table) SetWalkDepthHist(h *telemetry.Hist) { t.walkDepth = h }

// WalkResult describes one page-table walk: the physical address of the
// table entry read at each level (top-down) and the leaf PTE found.
// Levels is a fixed array (not a slice) so Walk performs no heap
// allocation — it sits on the simulator's per-reference hot path.
type WalkResult struct {
	Found bool
	PTE   arch.PTE
	// Levels[:Depth] holds the PTE physical addresses touched, ending
	// at the leaf (4 for a base page, 3 for a huge page, fewer if the
	// walk hit a hole).
	Levels [Levels]arch.PAddr
	Depth  int
	// leaf is the PT-level node a full descent ended at (nil for huge
	// mappings and holes), letting LineFromWalk read the leaf's cache
	// line without re-descending the tree the walk just traversed.
	// Only valid as long as the table is unmutated — the same contract
	// the walk memo enforces with memoGen.
	leaf *node
}

// Touched returns the physical addresses actually visited, top-down.
func (r *WalkResult) Touched() []arch.PAddr { return r.Levels[:r.Depth] }

// New creates an empty table, allocating its root frame.
func New(fs FrameSource) (*Table, error) {
	pfn, err := fs.AllocFrame()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating root: %w", err)
	}
	return &Table{frames: fs, root: newNode(pfn), memoGen: 1}, nil
}

func levelIndex(vpn arch.VPN, level int) int {
	return int(vpn>>uint(bitsPerLevel*(LeafLevel-level))) & indexMask
}

// entryAddr is the physical address of entry idx in node n.
func entryAddr(n *node, idx int) arch.PAddr {
	return n.pfn.Addr() + arch.PAddr(idx*arch.PTESize)
}

// MappedBase and MappedHuge report the current mapping counts.
func (t *Table) MappedBase() int { return t.mappedBase }
func (t *Table) MappedHuge() int { return t.mappedHuge }

// MappedPages returns total 4 KB-page-equivalents mapped.
func (t *Table) MappedPages() int {
	return t.mappedBase + t.mappedHuge*arch.PagesPerHuge
}

// Map installs a 4 KB translation for vpn. The PTE must be present and
// not huge.
func (t *Table) Map(vpn arch.VPN, pte arch.PTE) error {
	t.dirty()
	if pte.Huge || !pte.Present() {
		return fmt.Errorf("pagetable: Map requires a present base-page PTE, got %v", pte)
	}
	n, err := t.ptNode(vpn, "allocating")
	if err != nil {
		return err
	}
	idx := levelIndex(vpn, LeafLevel)
	if n.ptes[idx].Present() {
		return ErrAlreadyMapped
	}
	n.ptes[idx] = pte
	n.live++
	t.mappedBase++
	return nil
}

// MapRun installs 4 KB translations for a run of pages inside one
// 512-page block: page vpn+i maps pfns[i], every page with attr, which
// must be present. It leaves the table as a Map per page in ascending
// order would: one lookup finds or builds the block's PT node, where
// the first Map would, and each page fills its slot. If any page of
// the run is already mapped, MapRun maps none of them and returns
// ErrAlreadyMapped; a Map loop would have mapped the pages before the
// first mapped one. An empty run does nothing.
func (t *Table) MapRun(vpn arch.VPN, pfns []arch.PFN, attr arch.Attr) error {
	if len(pfns) == 0 {
		return nil
	}
	t.dirty()
	if !attr.Has(arch.AttrPresent) {
		return fmt.Errorf("pagetable: MapRun requires present attributes, got %v", attr)
	}
	end := vpn + arch.VPN(len(pfns))
	if (end-1)>>bitsPerLevel != vpn>>bitsPerLevel {
		panic(fmt.Sprintf("pagetable: MapRun [%d, %d) crosses a 512-page block", vpn, end))
	}
	n, err := t.ptNode(vpn, "allocating")
	if err != nil {
		return err
	}
	slots := n.ptes[levelIndex(vpn, LeafLevel):][:len(pfns)]
	for _, pte := range slots {
		if pte.Present() {
			return ErrAlreadyMapped
		}
	}
	for i, pfn := range pfns {
		slots[i] = arch.PTE{PFN: pfn, Attr: attr}
	}
	n.live += len(pfns)
	t.mappedBase += len(pfns)
	return nil
}

// MapHuge installs a 2 MB translation: baseVPN must be 512-aligned and
// pte.Huge set with a 512-aligned PFN.
func (t *Table) MapHuge(baseVPN arch.VPN, pte arch.PTE) error {
	t.dirty()
	if !pte.Huge || !pte.Present() {
		return fmt.Errorf("pagetable: MapHuge requires a present huge PTE, got %v", pte)
	}
	if baseVPN%arch.PagesPerHuge != 0 || pte.PFN%arch.PagesPerHuge != 0 {
		return fmt.Errorf("pagetable: MapHuge requires 2MB alignment (vpn=%d pfn=%d)", baseVPN, pte.PFN)
	}
	n := t.root
	for level := 0; level < HugeLevel; level++ {
		idx := levelIndex(baseVPN, level)
		child := n.children[idx]
		if child == nil {
			pfn, err := t.frames.AllocFrame()
			if err != nil {
				return fmt.Errorf("pagetable: allocating level-%d table: %w", level+1, err)
			}
			child = newNode(pfn)
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	idx := levelIndex(baseVPN, HugeLevel)
	if n.ptes[idx].Present() || n.children[idx] != nil {
		return ErrHugeConflict
	}
	n.ptes[idx] = pte
	n.live++
	t.mappedHuge++
	return nil
}

// Reserve allocates the interior table nodes for vpn's leaf without
// installing a mapping, so a subsequent Map performs no table-frame
// allocations. The page-fault handler uses this to order its
// allocations: table pages first, then the data frame, keeping the
// buddy allocator's sequential drain intact for consecutive faults.
func (t *Table) Reserve(vpn arch.VPN) error {
	t.dirty()
	_, err := t.ptNode(vpn, "reserving")
	return err
}

// ptNode returns vpn's PT-level node for Map and Reserve, allocating
// the interior tables missing on the way (verb names the operation in
// an allocation error). A block with a PT node holds no huge mapping
// (MapHuge refuses a slot with a child), so a hinted node needs no
// huge-conflict check.
func (t *Table) ptNode(vpn arch.VPN, verb string) (*node, error) {
	if leaf := t.hinted(vpn); leaf != nil {
		return leaf, nil
	}
	n := t.root
	for level := 0; level < LeafLevel; level++ {
		idx := levelIndex(vpn, level)
		if level == HugeLevel && n.ptes[idx].Present() {
			return nil, ErrHugeConflict
		}
		child := n.children[idx]
		if child == nil {
			pfn, err := t.frames.AllocFrame()
			if err != nil {
				return nil, fmt.Errorf("pagetable: %s level-%d table: %w", verb, level+1, err)
			}
			child = newNode(pfn)
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	t.setHint(n, vpn)
	return n, nil
}

// leafNode descends toward vpn's leaf without recording the path (and
// therefore without allocating — Lookup/Resolve/Line run once per
// simulated memory reference, Remap once per migrated page). It returns
// the deepest node reached and its level: LeafLevel for a full descent,
// HugeLevel when a huge PTE or a PMD hole stops the walk, less on an
// upper hole. A hinted block skips the descent.
func (t *Table) leafNode(vpn arch.VPN) (*node, int) {
	if leaf := t.hinted(vpn); leaf != nil {
		return leaf, LeafLevel
	}
	n := t.root
	for level := 0; level < LeafLevel; level++ {
		idx := levelIndex(vpn, level)
		if level == HugeLevel && n.ptes[idx].Present() {
			return n, HugeLevel
		}
		if n.children[idx] == nil {
			return n, level
		}
		n = n.children[idx]
	}
	t.setHint(n, vpn)
	return n, LeafLevel
}

// path records in nodes the nodes visited from root toward vpn's leaf,
// stopping early at a hole or a huge mapping, and returns how many it
// recorded. Unmap and UnmapHuge use it because pruning needs every node
// on the way; the caller owns the array, so neither allocates.
func (t *Table) path(vpn arch.VPN, nodes *[Levels]*node) int {
	n := t.root
	for level := 0; level < LeafLevel; level++ {
		nodes[level] = n
		idx := levelIndex(vpn, level)
		if level == HugeLevel && n.ptes[idx].Present() {
			return level + 1
		}
		if n.children[idx] == nil {
			return level + 1
		}
		n = n.children[idx]
	}
	nodes[LeafLevel] = n
	t.setHint(n, vpn)
	return Levels
}

// Lookup returns the leaf PTE mapping vpn: a base PTE, or the covering
// huge PTE (with Huge set and the block's base PFN). It allocates
// nothing.
func (t *Table) Lookup(vpn arch.VPN) (arch.PTE, bool) {
	n, level := t.leafNode(vpn)
	switch level {
	case LeafLevel: // reached the PT level
		pte := n.ptes[levelIndex(vpn, LeafLevel)]
		return pte, pte.Present()
	case HugeLevel: // stopped at the PMD
		pte := n.ptes[levelIndex(vpn, HugeLevel)]
		if pte.Present() && pte.Huge {
			return pte, true
		}
	}
	return arch.PTE{}, false
}

// Resolve translates vpn to its physical frame, flattening huge
// mappings to the exact backing frame.
func (t *Table) Resolve(vpn arch.VPN) (arch.PFN, arch.Attr, bool) {
	pte, ok := t.Lookup(vpn)
	if !ok {
		return 0, 0, false
	}
	if pte.Huge {
		return pte.PFN + arch.PFN(vpn%arch.PagesPerHuge), pte.Attr, true
	}
	return pte.PFN, pte.Attr, true
}

// Walk performs a full walk for vpn, reporting the physical address of
// every table entry the hardware would read. It allocates nothing.
func (t *Table) Walk(vpn arch.VPN) WalkResult {
	return *t.WalkRef(vpn)
}

// WalkRef is Walk returning a pointer into the walk memo instead of a
// by-value result: WalkResult is ~70 bytes, and the per-reference hot
// path would otherwise copy it twice per walk (memo store plus
// return). The pointed-to result is valid until the next walk of a
// colliding VPN or the next table mutation; the page walker consumes
// it immediately.
func (t *Table) WalkRef(vpn arch.VPN) *WalkResult {
	if t.memo == nil {
		t.memo = new(walkMemo)
	}
	i := int(vpn) & (walkMemoSize - 1)
	res := &t.memo.res[i]
	if t.memo.gen[i] != t.memoGen || t.memo.vpn[i] != vpn {
		t.walkTo(vpn, res)
		t.memo.vpn[i], t.memo.gen[i] = vpn, t.memoGen
	}
	if t.walkDepth != nil {
		t.walkDepth.Observe(uint64(res.Depth))
	}
	return res
}

// walkTo performs the uncached walk, filling res in place.
func (t *Table) walkTo(vpn arch.VPN, res *WalkResult) {
	*res = WalkResult{}
	n := t.root
	for level := 0; level < Levels; level++ {
		idx := levelIndex(vpn, level)
		res.Levels[res.Depth] = entryAddr(n, idx)
		res.Depth++
		if level == LeafLevel {
			pte := n.ptes[idx]
			res.Found = pte.Present()
			res.PTE = pte
			res.leaf = n
			return
		}
		if level == HugeLevel {
			if pte := n.ptes[idx]; pte.Present() && pte.Huge {
				res.Found = true
				res.PTE = pte
				return
			}
		}
		if n.children[idx] == nil {
			return
		}
		n = n.children[idx]
	}
}

// Line returns the eight translations sharing the 64-byte cache line of
// vpn's leaf PTE — exactly what a page walk's LLC fill exposes to the
// coalescing logic — plus that line's physical address. ok is false for
// unmapped or huge-mapped pages (huge PTEs live at the PMD and are not
// coalescing candidates).
func (t *Table) Line(vpn arch.VPN) (group [arch.PTEsPerLine]arch.Translation, lineAddr arch.PAddr, ok bool) {
	lineAddr, ok = t.LineInto(vpn, &group)
	return group, lineAddr, ok
}

// LineInto is Line with a caller-provided destination: the translation
// group is a ~200-byte array, and the walker's hot path fills its
// reused WalkInfo buffer directly instead of copying the array twice
// through return values.
func (t *Table) LineInto(vpn arch.VPN, group *[arch.PTEsPerLine]arch.Translation) (lineAddr arch.PAddr, ok bool) {
	leaf, level := t.leafNode(vpn)
	if level != LeafLevel {
		return 0, false
	}
	return lineFromLeaf(leaf, vpn, group)
}

// LineFromWalk is LineInto fed by a just-completed Walk's result: the
// walk already descended to the leaf node, so the line read reuses it
// instead of walking the interior levels again. res must come from a
// Walk on this table with no intervening mutation (the walker calls it
// immediately); a result that never reached the PT level falls back to
// a fresh descent.
func (t *Table) LineFromWalk(res *WalkResult, vpn arch.VPN, group *[arch.PTEsPerLine]arch.Translation) (lineAddr arch.PAddr, ok bool) {
	if res.leaf == nil {
		return t.LineInto(vpn, group)
	}
	return lineFromLeaf(res.leaf, vpn, group)
}

// lineFromLeaf reads the eight-translation cache line around vpn's PTE
// out of its PT-level node.
func lineFromLeaf(leaf *node, vpn arch.VPN, group *[arch.PTEsPerLine]arch.Translation) (lineAddr arch.PAddr, ok bool) {
	idx := levelIndex(vpn, LeafLevel)
	if !leaf.ptes[idx].Present() {
		return 0, false
	}
	groupStart := idx &^ (arch.PTEsPerLine - 1)
	baseVPN := vpn - arch.VPN(idx-groupStart)
	for i := 0; i < arch.PTEsPerLine; i++ {
		group[i] = arch.Translation{VPN: baseVPN + arch.VPN(i), PTE: leaf.ptes[groupStart+i]}
	}
	return entryAddr(leaf, groupStart), true
}

// Unmap removes the 4 KB mapping for vpn, pruning emptied tables. When
// vpn's leaf is hinted and keeps another live entry, nothing can prune,
// so the entry is cleared in place without recording the path.
func (t *Table) Unmap(vpn arch.VPN) error {
	t.dirty()
	idx := levelIndex(vpn, LeafLevel)
	if leaf := t.hinted(vpn); leaf != nil && leaf.live > 1 && leaf.ptes[idx].Present() {
		leaf.ptes[idx] = arch.PTE{}
		leaf.live--
		t.mappedBase--
		return nil
	}
	var nodes [Levels]*node
	if t.path(vpn, &nodes) != Levels {
		return ErrNotMapped
	}
	leaf := nodes[Levels-1]
	if !leaf.ptes[idx].Present() {
		return ErrNotMapped
	}
	leaf.ptes[idx] = arch.PTE{}
	leaf.live--
	t.mappedBase--
	t.prune(nodes[:], vpn)
	return nil
}

// UnmapRun removes the present 4 KB mappings in [vpn, end), a nonempty
// range inside one 512-page block, in ascending order, calling fn with
// each page and the frame it mapped. It stops before the mapping whose
// removal would empty the block's PT node and returns that mapping with
// ok true, still mapped: Unmap removes it and prunes the emptied
// tables. Every other removal leaves the node live, so nothing prunes
// here. An absent PT node (a hole or a huge mapping) reports no pages.
func (t *Table) UnmapRun(vpn, end arch.VPN, fn func(arch.VPN, arch.PFN)) (last arch.Translation, ok bool) {
	t.dirty()
	if end <= vpn || (end-1)>>bitsPerLevel != vpn>>bitsPerLevel {
		panic(fmt.Sprintf("pagetable: UnmapRun [%d, %d) is empty or crosses a 512-page block", vpn, end))
	}
	leaf, level := t.leafNode(vpn)
	if level != LeafLevel {
		return arch.Translation{}, false
	}
	first := levelIndex(vpn, LeafLevel)
	for i, pte := range leaf.ptes[first : first+int(end-vpn)] {
		if !pte.Present() {
			continue
		}
		page := vpn + arch.VPN(i)
		if leaf.live == 1 {
			return arch.Translation{VPN: page, PTE: pte}, true
		}
		leaf.ptes[first+i] = arch.PTE{}
		leaf.live--
		t.mappedBase--
		fn(page, pte.PFN)
	}
	return arch.Translation{}, false
}

// UnmapHuge removes the 2 MB mapping at baseVPN.
func (t *Table) UnmapHuge(baseVPN arch.VPN) error {
	t.dirty()
	var nodes [Levels]*node
	if t.path(baseVPN, &nodes) != HugeLevel+1 {
		return ErrNotMapped
	}
	last := nodes[HugeLevel]
	idx := levelIndex(baseVPN, HugeLevel)
	if pte := last.ptes[idx]; !pte.Present() || !pte.Huge {
		return ErrNotMapped
	}
	last.ptes[idx] = arch.PTE{}
	last.live--
	t.mappedHuge--
	t.prune(nodes[:HugeLevel+1], baseVPN)
	return nil
}

// prune frees table nodes that became empty, bottom-up (never the
// root). Freeing any node drops the leaf hint, which may be that node
// or lie under it.
func (t *Table) prune(nodes []*node, vpn arch.VPN) {
	for level := len(nodes) - 1; level > 0; level-- {
		n := nodes[level]
		if n.live > 0 {
			return
		}
		t.hint = nil
		parent := nodes[level-1]
		idx := levelIndex(vpn, level-1)
		parent.children[idx] = nil
		parent.live--
		t.frames.FreeFrame(n.pfn)
		nodePool.Put(n)
	}
}

// Remap changes the physical frame backing an existing 4 KB mapping —
// the page-migration primitive used by the compaction daemon. The
// caller is responsible for the corresponding TLB shootdown.
func (t *Table) Remap(vpn arch.VPN, newPFN arch.PFN) error {
	t.dirty()
	leaf, level := t.leafNode(vpn)
	idx := levelIndex(vpn, LeafLevel)
	if level != LeafLevel || !leaf.ptes[idx].Present() {
		return ErrNotMapped
	}
	leaf.ptes[idx].PFN = newPFN
	return nil
}

// SplitHuge demotes the 2 MB mapping at baseVPN into 512 base-page
// PTEs over the same frames (full residual contiguity), the operation
// THP's pressure daemon performs.
func (t *Table) SplitHuge(baseVPN arch.VPN) error {
	t.dirty()
	pmd, level := t.leafNode(baseVPN)
	if level != HugeLevel {
		return ErrNotMapped
	}
	idx := levelIndex(baseVPN, HugeLevel)
	pte := pmd.ptes[idx]
	if !pte.Present() || !pte.Huge {
		return ErrNotMapped
	}
	pfn, err := t.frames.AllocFrame()
	if err != nil {
		return fmt.Errorf("pagetable: allocating PT for split: %w", err)
	}
	pt := newNode(pfn)
	for i := 0; i < fanout; i++ {
		pt.ptes[i] = arch.PTE{PFN: pte.PFN + arch.PFN(i), Attr: pte.Attr}
	}
	pt.live = fanout
	pmd.ptes[idx] = arch.PTE{}
	pmd.children[idx] = pt
	// live count unchanged: the huge PTE became a child link.
	t.mappedHuge--
	t.mappedBase += fanout
	return nil
}

// Each visits every mapping in ascending VPN order: base mappings as
// single translations and huge mappings as one Translation with
// PTE.Huge set (VPN = block base). Return false from fn to stop early.
func (t *Table) Each(fn func(arch.Translation) bool) {
	t.each(t.root, 0, 0, fn)
}

func (t *Table) each(n *node, level int, prefix arch.VPN, fn func(arch.Translation) bool) bool {
	for i := 0; i < fanout; i++ {
		vpn := prefix | arch.VPN(i)<<uint(bitsPerLevel*(LeafLevel-level))
		if level == LeafLevel {
			if pte := n.ptes[i]; pte.Present() {
				if !fn(arch.Translation{VPN: vpn, PTE: pte}) {
					return false
				}
			}
			continue
		}
		if level == HugeLevel {
			if pte := n.ptes[i]; pte.Present() {
				if !fn(arch.Translation{VPN: vpn, PTE: pte}) {
					return false
				}
				continue
			}
		}
		if child := n.children[i]; child != nil {
			if !t.each(child, level+1, vpn, fn) {
				return false
			}
		}
	}
	return true
}

// Release frees every table frame (the process exited) and recycles
// the nodes. The leaf data frames are the VM layer's responsibility.
// The table is unusable afterwards: mapping, walking or looking up
// panics. A second Release, or a Release after Recycle, does nothing.
func (t *Table) Release() { t.drop(true) }

// Recycle returns every node to the pool for the next table, without
// freeing any table frame: the frame source is being discarded whole,
// as when a finished job releases its system. The table is unusable
// afterwards, as after Release.
func (t *Table) Recycle() { t.drop(false) }

func (t *Table) drop(freeFrames bool) {
	if t.root == nil {
		return
	}
	t.dirty()
	t.release(t.root, 0, freeFrames)
	t.root, t.hint = nil, nil
}

func (t *Table) release(n *node, level int, freeFrames bool) {
	if level < LeafLevel {
		for _, c := range n.children {
			if c != nil {
				t.release(c, level+1, freeFrames)
			}
		}
	}
	if freeFrames {
		t.frames.FreeFrame(n.pfn)
	}
	nodePool.Put(n)
}
