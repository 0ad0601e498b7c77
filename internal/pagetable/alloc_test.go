package pagetable

import (
	"testing"

	"colt/internal/arch"
)

// The translation-side operations (Walk, Lookup, Resolve, Line) run
// once or more per simulated memory reference; any per-call allocation
// multiplies across the billions of references of a full experiment
// sweep. The mutations that need no new table frame run once per page
// the compactor migrates (Remap) or per page a process frees and
// re-faults (Unmap then Map, with another page left in the leaf so the
// Unmap prunes nothing). These guards pin them all at zero.
func TestTranslationPathZeroAlloc(t *testing.T) {
	tbl, _ := newTable(t)
	for i := 0; i < 64; i++ {
		if err := tbl.Map(arch.VPN(100+i), basePTE(arch.PFN(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MapHuge(arch.PagesPerHuge*4, hugePTE(8192)); err != nil {
		t.Fatal(err)
	}
	hole := arch.VPN(1) << 30

	cases := []struct {
		name string
		fn   func()
	}{
		{"Walk/base", func() { tbl.Walk(110) }},
		{"Walk/huge", func() { tbl.Walk(arch.PagesPerHuge*4 + 7) }},
		{"Walk/hole", func() { tbl.Walk(hole) }},
		{"Lookup", func() { tbl.Lookup(110) }},
		{"Resolve", func() { tbl.Resolve(arch.PagesPerHuge*4 + 7) }},
		{"Line", func() { tbl.Line(110) }},
		{"Remap", func() {
			if err := tbl.Remap(120, 900); err != nil {
				t.Fatal(err)
			}
		}},
		{"Unmap/Map", func() {
			if err := tbl.Unmap(130); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Map(130, basePTE(530)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", tc.name, avg)
		}
	}
}
