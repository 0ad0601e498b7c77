package experiments

import (
	"strings"
	"testing"

	"colt/internal/workload"
)

func TestSetups(t *testing.T) {
	s := Setups()
	if len(s) != 5 {
		t.Fatalf("want 5 studied configurations, got %d", len(s))
	}
	if !s[0].THP || s[1].THP || s[0].MemhogPct != 0 || s[4].MemhogPct != 50 {
		t.Fatalf("setups malformed: %+v", s)
	}
}

// TestKernelSetupNames pins the names the naming rule gives the five
// paper setups: each is report bytes and seeds its jobs' streams.
func TestKernelSetupNames(t *testing.T) {
	want := []string{
		"THS on, normal compaction",
		"THS off, normal compaction",
		"THS off, low compaction",
		"THS on, normal compaction, memhog(25)",
		"THS on, normal compaction, memhog(50)",
	}
	for i, s := range Setups() {
		if s.Name != want[i] {
			t.Errorf("setup %d is named %q, want %q", i, s.Name, want[i])
		}
		if again := KernelSetup(s.THP, s.Compaction, s.MemhogPct); again != s {
			t.Errorf("KernelSetup(%v, %v, %d) = %+v, want %+v", s.THP, s.Compaction, s.MemhogPct, again, s)
		}
	}
}

// TestPolicyVariant: every name in the policy table resolves to its
// entry, and an unknown or untrimmed name fails with an error that
// lists every name.
func TestPolicyVariant(t *testing.T) {
	names := PolicyNames()
	if len(names) != 5 {
		t.Fatalf("PolicyNames = %v, want the five policies", names)
	}
	for i, name := range names {
		v, err := PolicyVariant(name)
		if err != nil {
			t.Fatalf("PolicyVariant(%q): %v", name, err)
		}
		if v != Policies[i] {
			t.Errorf("PolicyVariant(%q) = %+v, want %+v", name, v, Policies[i])
		}
	}
	for i, v := range StandardVariants() {
		if v != Policies[i] {
			t.Errorf("standard variant %d = %+v, want policy %+v", i, v, Policies[i])
		}
	}
	for _, bad := range []string{"colt-xl", "baseline ", ""} {
		_, err := PolicyVariant(bad)
		if err == nil {
			t.Fatalf("PolicyVariant(%q) succeeded", bad)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("PolicyVariant(%q) error %q does not list %q", bad, err, name)
			}
		}
	}
}

func TestRunContiguityTHSContrast(t *testing.T) {
	spec, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	on, err := RunContiguity(spec, SetupTHSOnNormal, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunContiguity(spec, SetupTHSOffNormal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if on.NonSuperPages == 0 && on.SuperPages == 0 {
		t.Fatal("THS-on scan saw no pages")
	}
	if off.SuperPages != 0 {
		t.Fatal("THS-off produced superpages")
	}
	if off.AverageContiguity() < 1 {
		t.Fatalf("THS-off contiguity = %v", off.AverageContiguity())
	}
	t.Logf("Mcf contiguity: THS-on avg=%.1f (super=%d), THS-off avg=%.1f",
		on.AverageContiguity(), on.SuperPages, off.AverageContiguity())
}

func TestRunBenchmarkStandardVariants(t *testing.T) {
	spec, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.MidRunChurn = true
	res, err := RunBenchmark(spec, SetupTHSOnNormal, opts, StandardVariants())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions recorded")
	}
	base, ok := res.Variant("baseline")
	if !ok {
		t.Fatal("baseline variant missing")
	}
	if base.TLB.Accesses != uint64(opts.Refs) {
		t.Fatalf("baseline accesses = %d, want %d", base.TLB.Accesses, opts.Refs)
	}
	if base.TLB.L2Misses == 0 {
		t.Fatal("baseline saw no TLB misses; workload too small")
	}
	for _, name := range []string{"colt-sa", "colt-fa", "colt-all"} {
		v, ok := res.Variant(name)
		if !ok {
			t.Fatalf("variant %s missing", name)
		}
		if v.TLB.L2Misses >= base.TLB.L2Misses {
			t.Errorf("%s did not reduce L2 misses: %d vs %d", name, v.TLB.L2Misses, base.TLB.L2Misses)
		}
		if v.Run.WalkCycles >= base.Run.WalkCycles {
			t.Errorf("%s did not reduce walk cycles", name)
		}
		l1, l2 := v.MPMI()
		if l1 <= 0 || l2 <= 0 {
			t.Errorf("%s MPMI degenerate: %v/%v", name, l1, l2)
		}
	}
	if _, ok := res.Variant("nosuch"); ok {
		t.Fatal("phantom variant")
	}
}

func TestRunBenchmarkDeterministic(t *testing.T) {
	spec, _ := workload.ByName("Gobmk")
	opts := QuickOptions()
	opts.Refs = 20_000
	a, err := RunBenchmark(spec, SetupTHSOnNormal, opts, StandardVariants()[:2])
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(spec, SetupTHSOnNormal, opts, StandardVariants()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Variants {
		if a.Variants[i].TLB != b.Variants[i].TLB {
			t.Fatalf("run not deterministic: %+v vs %+v", a.Variants[i].TLB, b.Variants[i].TLB)
		}
	}
}

func TestMemhogSetupRuns(t *testing.T) {
	spec, _ := workload.ByName("Gobmk")
	opts := QuickOptions()
	opts.Refs = 10_000
	res, err := RunBenchmark(spec, SetupTHSOnMemhog25, opts, StandardVariants()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Setup.MemhogPct != 25 {
		t.Fatal("setup not recorded")
	}
}

func TestVariantSets(t *testing.T) {
	if len(StandardVariants()) != 4 {
		t.Fatal("standard variants")
	}
	if len(ShiftVariants()) != 4 {
		t.Fatal("shift variants")
	}
	names := map[string]bool{}
	for _, v := range StandardVariants() {
		names[v.Name] = true
	}
	if !names["baseline"] || !names["colt-sa"] || !names["colt-fa"] || !names["colt-all"] {
		t.Fatal("variant names")
	}
}
