package pagetable

import (
	"strings"
	"testing"

	"colt/internal/arch"
)

// auditWorld builds a table with base and huge mappings and asserts it
// starts clean.
func auditWorld(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(newCounterFrames())
	if err != nil {
		t.Fatal(err)
	}
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	for i := 0; i < 20; i++ {
		if err := tbl.Map(arch.VPN(i), arch.PTE{PFN: arch.PFN(1<<22 + i), Attr: attr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MapHuge(arch.VPN(2*arch.PagesPerHuge), arch.PTE{PFN: 4 * arch.PagesPerHuge, Attr: attr, Huge: true}); err != nil {
		t.Fatal(err)
	}
	if issues := tbl.Audit(); len(issues) != 0 {
		t.Fatalf("fresh table audit reported %v", issues)
	}
	return tbl
}

// leafFor walks to the leaf node holding vpn's PTE.
func leafFor(t *testing.T, tbl *Table, vpn arch.VPN) *node {
	t.Helper()
	var nodes [Levels]*node
	if tbl.path(vpn, &nodes) != Levels {
		t.Fatalf("vpn %d not mapped to leaf depth", vpn)
	}
	return nodes[Levels-1]
}

func wantIssue(t *testing.T, issues []string, substr string) {
	t.Helper()
	for _, s := range issues {
		if strings.Contains(s, substr) {
			return
		}
	}
	t.Fatalf("audit %v lacks an issue containing %q", issues, substr)
}

func TestAuditCatchesLiveCountDrift(t *testing.T) {
	tbl := auditWorld(t)
	leafFor(t, tbl, 3).live += 2
	wantIssue(t, tbl.Audit(), "live count")
}

func TestAuditCatchesCounterDrift(t *testing.T) {
	tbl := auditWorld(t)
	tbl.mappedBase--
	wantIssue(t, tbl.Audit(), "mappedBase")
	tbl.mappedBase++
	tbl.mappedHuge++
	wantIssue(t, tbl.Audit(), "mappedHuge")
}

func TestAuditCatchesHugeFlagMisuse(t *testing.T) {
	tbl := auditWorld(t)
	leaf := leafFor(t, tbl, 5)
	leaf.ptes[levelIndex(5, LeafLevel)].Huge = true
	wantIssue(t, tbl.Audit(), "huge flag on a 4KB PTE")
}

func TestAuditCatchesMisalignedHugePTE(t *testing.T) {
	tbl := auditWorld(t)
	vpn := arch.VPN(2 * arch.PagesPerHuge)
	var nodes [Levels]*node
	if tbl.path(vpn, &nodes) != HugeLevel+1 {
		t.Fatalf("huge vpn %d not mapped at PMD depth", vpn)
	}
	nodes[HugeLevel].ptes[levelIndex(vpn, HugeLevel)].PFN++
	wantIssue(t, tbl.Audit(), "not 2MB-aligned")
}
