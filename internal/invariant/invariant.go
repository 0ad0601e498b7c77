// Package invariant contains runtime auditors for the simulator's
// load-bearing data-structure invariants: the buddy allocator's
// free-list/metadata accounting, frame↔page-table ownership
// consistency, pagetable↔TLB coherence after shootdowns, and the CoLT
// coalescing invariant (every coalesced TLB entry maps physically
// contiguous, attribute-identical frames — the property the paper's
// hardware relies on and that a missed shootdown or a buggy merge
// would silently break).
//
// Auditors return structured Violations instead of panicking, so
// experiment drivers can surface them as per-job failures and a chaos
// run can keep going. They are meant for checkpoints (after build,
// after churn, end of run), never for per-reference hot paths: each
// audit walks whole structures and allocates freely.
package invariant

import (
	"fmt"
	"strings"

	"colt/internal/arch"
	"colt/internal/core"
	"colt/internal/mm"
	"colt/internal/pagetable"
	"colt/internal/vm"
)

// Violation is one broken invariant, structured for deterministic
// reporting: all fields are pure functions of simulator state.
type Violation struct {
	// Check names the auditor: "buddy", "frame-owner",
	// "tlb-coherence", or "coalescing".
	Check string
	// Subject identifies the offending object (a frame, a VPN, a TLB
	// entry's level and range).
	Subject string
	// Detail says what is wrong with it.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return v.Check + ": " + v.Subject + ": " + v.Detail
}

// Error aggregates the violations of one checkpoint into an error.
// Its message is deterministic: the count plus the first few
// violations in audit order.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	const show = 3
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s)", len(e.Violations))
	for i, v := range e.Violations {
		if i >= show {
			fmt.Fprintf(&b, "; +%d more", len(e.Violations)-show)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Check bundles the outcome of one or more audits into an error: nil
// when every slice is empty, a single *Error otherwise.
func Check(audits ...[]Violation) error {
	var all []Violation
	for _, vs := range audits {
		all = append(all, vs...)
	}
	if len(all) == 0 {
		return nil
	}
	return &Error{Violations: all}
}

// AuditBuddy runs the buddy allocator's free-list audit: no
// overlapping free ranges, natural buddy alignment, per-order block
// counts and the free-page total matching the lists, and every frame
// either allocated or free (mm.Buddy.Audit has the full rule list).
func AuditBuddy(b *mm.Buddy) []Violation {
	var out []Violation
	for _, issue := range b.Audit() {
		out = append(out, Violation{Check: "buddy", Subject: "free lists", Detail: issue})
	}
	return out
}

// AuditPageTable runs the radix tree's structural self-audit (slot
// exclusivity, PTE levels, huge alignment, live counts, mapping
// counters — pagetable.Table.Audit has the rule list).
func AuditPageTable(pid int, table *pagetable.Table) []Violation {
	var out []Violation
	subject := fmt.Sprintf("pid %d", pid)
	for _, issue := range table.Audit() {
		out = append(out, Violation{Check: "pagetable", Subject: subject, Detail: issue})
	}
	return out
}

// AuditFrameOwners checks frame↔page-table ownership both ways: every
// page-table translation must reference allocated frames whose
// recorded owner is exactly (pid, vpn), and every user-owned frame
// must be resolvable back through its owner's page table to itself.
// This is the consistency compaction migration must preserve.
func AuditFrameOwners(sys *vm.System) []Violation {
	var out []Violation
	// Forward: translations → frames.
	for _, proc := range sys.Processes() {
		pid := proc.PID
		proc.Table.Each(func(tr arch.Translation) bool {
			pages := 1
			if tr.PTE.Huge {
				pages = arch.PagesPerHuge
			}
			for i := 0; i < pages; i++ {
				vpn := tr.VPN + arch.VPN(i)
				pfn := tr.PTE.PFN + arch.PFN(i)
				subject := fmt.Sprintf("pid %d vpn %d", pid, vpn)
				if !sys.Phys.Valid(pfn) {
					out = append(out, Violation{Check: "frame-owner", Subject: subject,
						Detail: fmt.Sprintf("maps invalid frame %d", pfn)})
					continue
				}
				if !sys.Phys.Allocated(pfn) {
					out = append(out, Violation{Check: "frame-owner", Subject: subject,
						Detail: fmt.Sprintf("maps free frame %d", pfn)})
					continue
				}
				if owner := sys.Phys.Owner(pfn); owner.PID != pid || owner.VPN != vpn {
					out = append(out, Violation{Check: "frame-owner", Subject: subject,
						Detail: fmt.Sprintf("frame %d owner is pid %d vpn %d", pfn, owner.PID, owner.VPN)})
				}
			}
			return true
		})
	}
	// Reverse: user-owned frames → translations. Kernel-owned frames
	// (page tables and other pinned kernel state) carry no VPN.
	for i := 0; i < sys.Phys.NumFrames(); i++ {
		pfn := arch.PFN(i)
		if !sys.Phys.Allocated(pfn) {
			continue
		}
		owner := sys.Phys.Owner(pfn)
		if owner.PID == mm.KernelPID {
			continue
		}
		subject := fmt.Sprintf("frame %d", pfn)
		proc := sys.Process(owner.PID)
		if proc == nil {
			out = append(out, Violation{Check: "frame-owner", Subject: subject,
				Detail: fmt.Sprintf("owned by unknown pid %d", owner.PID)})
			continue
		}
		got, _, ok := proc.Table.Resolve(owner.VPN)
		if !ok {
			out = append(out, Violation{Check: "frame-owner", Subject: subject,
				Detail: fmt.Sprintf("owner pid %d vpn %d is not mapped", owner.PID, owner.VPN)})
			continue
		}
		if got != pfn {
			out = append(out, Violation{Check: "frame-owner", Subject: subject,
				Detail: fmt.Sprintf("owner pid %d vpn %d maps frame %d instead", owner.PID, owner.VPN, got)})
		}
	}
	return out
}

// AuditTLBCoherence checks that every translation resident anywhere in
// the hierarchy agrees with the page table — the property the OS
// maintains via shootdowns on unmap, remap, migration, and hugepage
// split. name labels the hierarchy (the variant) in violations.
func AuditTLBCoherence(name string, h *core.Hierarchy, table *pagetable.Table) []Violation {
	var out []Violation
	h.EachRun(func(level string, run core.Run, huge bool) {
		for i := 0; i < run.Len; i++ {
			vpn := run.BaseVPN + arch.VPN(i)
			want := run.BasePFN + arch.PFN(i)
			subject := fmt.Sprintf("%s %s entry [%d,+%d) vpn %d", name, level, run.BaseVPN, run.Len, vpn)
			pfn, _, ok := table.Resolve(vpn)
			if !ok {
				out = append(out, Violation{Check: "tlb-coherence", Subject: subject,
					Detail: "stale: page no longer mapped (missed shootdown)"})
				continue
			}
			if pfn != want {
				out = append(out, Violation{Check: "tlb-coherence", Subject: subject,
					Detail: fmt.Sprintf("translates to frame %d, page table says %d", want, pfn)})
			}
		}
	})
	return out
}

// AuditCoalescing checks the CoLT coalescing invariant on every
// multi-translation entry: the covered pages must map physically
// contiguous frames starting at the entry's base (PPN generation
// adds the offset, §4.1.3/§4.2.2) with identical page-table
// attributes, and superpage entries must be naturally aligned. name
// labels the hierarchy (the variant) in violations.
func AuditCoalescing(name string, h *core.Hierarchy, table *pagetable.Table) []Violation {
	var out []Violation
	h.EachRun(func(level string, run core.Run, huge bool) {
		subject := fmt.Sprintf("%s %s entry [%d,+%d)", name, level, run.BaseVPN, run.Len)
		if huge {
			if run.BaseVPN%arch.PagesPerHuge != 0 || run.BasePFN%arch.PagesPerHuge != 0 {
				out = append(out, Violation{Check: "coalescing", Subject: subject,
					Detail: fmt.Sprintf("superpage entry misaligned: v%d p%d", run.BaseVPN, run.BasePFN)})
			}
			return
		}
		if run.Len <= 1 {
			return
		}
		var baseAttr arch.Attr
		for i := 0; i < run.Len; i++ {
			vpn := run.BaseVPN + arch.VPN(i)
			pfn, attr, ok := table.Resolve(vpn)
			if !ok {
				// Coherence's problem, not coalescing's: without a
				// mapping there is no contiguity claim to check.
				continue
			}
			if i == 0 {
				baseAttr = attr
			} else if attr != baseAttr {
				out = append(out, Violation{Check: "coalescing", Subject: subject,
					Detail: fmt.Sprintf("vpn %d attr %v differs from base attr %v", vpn, attr, baseAttr)})
			}
			if want := run.BasePFN + arch.PFN(i); pfn != want {
				out = append(out, Violation{Check: "coalescing", Subject: subject,
					Detail: fmt.Sprintf("vpn %d maps frame %d, breaking contiguity from base %d", vpn, pfn, run.BasePFN)})
			}
		}
	})
	return out
}
