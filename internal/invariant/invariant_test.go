package invariant_test

import (
	"strings"
	"testing"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/core"
	"colt/internal/invariant"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/pagetable"
	"colt/internal/vm"
)

func checkStrings(vs []invariant.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

func TestCheckAggregates(t *testing.T) {
	if err := invariant.Check(nil, nil); err != nil {
		t.Fatalf("Check of empty audits = %v, want nil", err)
	}
	vs := []invariant.Violation{
		{Check: "buddy", Subject: "free lists", Detail: "a"},
		{Check: "coalescing", Subject: "x", Detail: "b"},
		{Check: "coalescing", Subject: "y", Detail: "c"},
		{Check: "coalescing", Subject: "z", Detail: "d"},
	}
	err := invariant.Check(vs[:1], vs[1:])
	if err == nil {
		t.Fatal("Check of non-empty audits = nil, want error")
	}
	var ie *invariant.Error
	if ok := errorsAs(err, &ie); !ok {
		t.Fatalf("Check error type = %T, want *invariant.Error", err)
	}
	if len(ie.Violations) != 4 {
		t.Fatalf("aggregated %d violations, want 4", len(ie.Violations))
	}
	msg := err.Error()
	if !strings.Contains(msg, "4 violation(s)") || !strings.Contains(msg, "+1 more") {
		t.Fatalf("error message %q lacks count or truncation marker", msg)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **invariant.Error) bool {
	e, ok := err.(*invariant.Error)
	if ok {
		*target = e
	}
	return ok
}

func TestAuditBuddy(t *testing.T) {
	phys := mm.NewPhysMem(64)
	buddy := mm.NewBuddy(phys)
	if vs := invariant.AuditBuddy(buddy); len(vs) != 0 {
		t.Fatalf("fresh buddy audit reported %v", checkStrings(vs))
	}
	// Corrupt frame metadata behind the allocator's back: a second
	// allocator over the same memory claims frame 3, which the first
	// still holds on its free lists. A free-list frame must never be
	// marked allocated.
	if !mm.NewBuddy(phys).AllocSpecific(3) {
		t.Fatal("second allocator could not claim frame 3")
	}
	vs := invariant.AuditBuddy(buddy)
	if len(vs) == 0 {
		t.Fatal("buddy audit missed corrupted frame metadata")
	}
	for _, v := range vs {
		if v.Check != "buddy" {
			t.Fatalf("violation check = %q, want buddy", v.Check)
		}
	}
}

func TestAuditFrameOwners(t *testing.T) {
	sys := vm.NewSystem(vm.Config{Frames: 1 << 12, THP: false, Compaction: mm.CompactionNormal})
	proc, err := sys.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	r, err := proc.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if vs := invariant.AuditFrameOwners(sys); len(vs) != 0 {
		t.Fatalf("clean system audit reported %v", checkStrings(vs))
	}

	pfn, _, ok := proc.Resolve(r.Base)
	if !ok {
		t.Fatalf("vpn %d not resolvable after Malloc", r.Base)
	}
	// Corrupt the owner record the way a buggy migration would: the
	// frame now claims to back a different virtual page.
	sys.Phys.SetOwner(pfn, mm.PageOwner{PID: proc.PID, VPN: r.Base + 7000}, true)
	vs := invariant.AuditFrameOwners(sys)
	if len(vs) == 0 {
		t.Fatal("frame-owner audit missed corrupted owner VPN")
	}

	// An owner referencing a nonexistent process must be flagged too.
	sys.Phys.SetOwner(pfn, mm.PageOwner{PID: 999, VPN: r.Base}, true)
	vs = invariant.AuditFrameOwners(sys)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "unknown pid 999") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit of orphaned frame reported %v, want unknown-pid violation", checkStrings(vs))
	}

	// Restore and re-verify so the test proves the audit is not
	// permanently tripped by state it already saw.
	sys.Phys.SetOwner(pfn, mm.PageOwner{PID: proc.PID, VPN: r.Base}, true)
	if vs := invariant.AuditFrameOwners(sys); len(vs) != 0 {
		t.Fatalf("restored system audit reported %v", checkStrings(vs))
	}
}

// tableFrames is a trivial page-table frame source for TLB-only tests.
type tableFrames struct{ next arch.PFN }

func (f *tableFrames) AllocFrame() (arch.PFN, error) { f.next++; return f.next, nil }
func (f *tableFrames) FreeFrame(arch.PFN)            {}

// newWorld maps pages consecutive VPNs to consecutive PFNs starting at
// 1<<22 and returns a CoLT-All hierarchy over the table with every page
// touched once (so coalesced entries are resident).
func newWorld(t *testing.T, pages int) (*core.Hierarchy, *pagetable.Table) {
	t.Helper()
	tbl, err := pagetable.New(&tableFrames{next: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	for i := 0; i < pages; i++ {
		if err := tbl.Map(arch.VPN(i), arch.PTE{PFN: arch.PFN(1<<22 + i), Attr: attr}); err != nil {
			t.Fatal(err)
		}
	}
	walker := mmu.NewWalker(tbl, cache.DefaultHierarchy(), mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
	h := core.NewHierarchy(core.CoLTAllConfig(), walker)
	for i := 0; i < pages; i++ {
		h.Access(arch.VPN(i))
	}
	return h, tbl
}

func TestAuditTLBCoherence(t *testing.T) {
	h, tbl := newWorld(t, 64)
	if vs := invariant.AuditTLBCoherence("colt-all", h, tbl); len(vs) != 0 {
		t.Fatalf("coherent hierarchy audit reported %v", checkStrings(vs))
	}

	// Remap a resident page WITHOUT a shootdown — the bug class the
	// auditor exists to catch. The TLB still translates vpn 5 to the
	// old frame.
	if err := tbl.Remap(5, 1<<23); err != nil {
		t.Fatal(err)
	}
	vs := invariant.AuditTLBCoherence("colt-all", h, tbl)
	if len(vs) == 0 {
		t.Fatal("coherence audit missed a stale TLB entry after remap without shootdown")
	}
	for _, v := range vs {
		if v.Check != "tlb-coherence" {
			t.Fatalf("violation check = %q, want tlb-coherence", v.Check)
		}
	}

	// Unmapping without a shootdown must read as a stale entry.
	h2, tbl2 := newWorld(t, 64)
	if err := tbl2.Unmap(9); err != nil {
		t.Fatal(err)
	}
	vs = invariant.AuditTLBCoherence("colt-all", h2, tbl2)
	stale := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "stale") {
			stale = true
		}
	}
	if !stale {
		t.Fatalf("audit after unmap reported %v, want stale-entry violation", checkStrings(vs))
	}
}

// TestAuditCoalescingCatchesBrokenRun deliberately breaks the CoLT
// coalescing invariant — a resident coalesced entry whose claimed
// physical contiguity the page table no longer backs — and requires
// the auditor to flag it.
func TestAuditCoalescingCatchesBrokenRun(t *testing.T) {
	h, tbl := newWorld(t, 64)
	// The world maps a perfectly contiguous range, so CoLT must have
	// coalesced: the audit is vacuous unless a multi-page run is
	// resident.
	multi := false
	h.EachRun(func(level string, run core.Run, huge bool) {
		if !huge && run.Len > 1 {
			multi = true
		}
	})
	if !multi {
		t.Fatal("no coalesced run resident; test world cannot exercise the auditor")
	}
	if vs := invariant.AuditCoalescing("colt-all", h, tbl); len(vs) != 0 {
		t.Fatalf("intact coalescing audit reported %v", checkStrings(vs))
	}

	// Move one middle page elsewhere without a shootdown: every
	// coalesced entry covering vpn 3 now asserts a contiguity the
	// page table contradicts.
	if err := tbl.Remap(3, 1<<24); err != nil {
		t.Fatal(err)
	}
	vs := invariant.AuditCoalescing("colt-all", h, tbl)
	if len(vs) == 0 {
		t.Fatal("coalescing audit missed a broken contiguity claim")
	}
	found := false
	for _, v := range vs {
		if v.Check != "coalescing" {
			t.Fatalf("violation check = %q, want coalescing", v.Check)
		}
		if strings.Contains(v.Detail, "breaking contiguity") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit reported %v, want a breaking-contiguity violation", checkStrings(vs))
	}
}
