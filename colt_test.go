package colt

import (
	"reflect"
	"testing"

	"colt/internal/experiments"
)

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 14 || b[0] != "Mcf" {
		t.Fatalf("Benchmarks = %v", b)
	}
}

func TestRunBenchmarkFacade(t *testing.T) {
	rep, err := RunBenchmark("Mcf", DefaultKernel(), QuickOptions(), AllPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bench != "Mcf" || rep.Instructions == 0 {
		t.Fatalf("report = %+v", rep)
	}
	base, ok := rep.PolicyReport(Baseline)
	if !ok || base.L2MPMI <= 0 {
		t.Fatalf("baseline report = %+v, %v", base, ok)
	}
	if base.L1Eliminated != 0 || base.SpeedupPct != 0 {
		t.Fatal("baseline must have zero self-elimination")
	}
	for _, p := range []Policy{CoLTSA, CoLTFA, CoLTAll} {
		pr, ok := rep.PolicyReport(p)
		if !ok {
			t.Fatalf("policy %s missing", p)
		}
		if pr.L2Eliminated <= 0 {
			t.Errorf("%s eliminated %.1f%% of L2 misses, want > 0", p, pr.L2Eliminated)
		}
		if pr.SpeedupPct <= 0 {
			t.Errorf("%s speedup %.1f%%, want > 0", p, pr.SpeedupPct)
		}
		if pr.SpeedupPct > rep.PerfectSpeedupPct+1e-9 {
			t.Errorf("%s speedup %.1f%% exceeds perfect %.1f%%", p, pr.SpeedupPct, rep.PerfectSpeedupPct)
		}
	}
	if rep.AvgContiguity < 1 {
		t.Fatalf("AvgContiguity = %v", rep.AvgContiguity)
	}
	if _, ok := rep.PolicyReport(Policy("nope")); ok {
		t.Fatal("phantom policy report")
	}
}

func TestRunBenchmarkDefaultsPolicies(t *testing.T) {
	rep, err := RunBenchmark("Gobmk", DefaultKernel(), QuickOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Policies) != 4 {
		t.Fatalf("default policies = %d", len(rep.Policies))
	}
}

func TestRunBenchmarkErrors(t *testing.T) {
	if _, err := RunBenchmark("nosuch", DefaultKernel(), QuickOptions(), nil); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunBenchmark("Mcf", DefaultKernel(), QuickOptions(), []Policy{"bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestMeasureContiguityFacade(t *testing.T) {
	rep, err := MeasureContiguity("Mcf", DefaultKernel(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Average < 1 {
		t.Fatalf("Average = %v", rep.Average)
	}
	if rep.CDF[1024] < rep.CDF[1] {
		t.Fatal("CDF not monotone")
	}
	if rep.CDF[1024] <= 0 {
		t.Fatal("CDF empty")
	}
	// Low-compaction kernel also runs.
	if _, err := MeasureContiguity("Gobmk", KernelConfig{LowCompaction: true}, QuickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	d := DefaultOptions()
	q := QuickOptions()
	if d.MemoryFrames <= q.MemoryFrames || d.References <= q.References {
		t.Fatalf("default %+v not larger than quick %+v", d, q)
	}
	// Zero-value options fall back to defaults internally.
	var zero Options
	internal := zero.internal()
	if internal.Frames <= 0 || internal.Refs <= 0 {
		t.Fatalf("zero options resolve to %+v", internal)
	}
}

func TestSeqPrefetchPolicyFacade(t *testing.T) {
	rep, err := RunBenchmark("Bzip2", DefaultKernel(), QuickOptions(),
		[]Policy{Baseline, SeqPrefetch, CoLTAll})
	if err != nil {
		t.Fatal(err)
	}
	pf, ok := rep.PolicyReport(SeqPrefetch)
	if !ok {
		t.Fatal("prefetch policy missing")
	}
	all, _ := rep.PolicyReport(CoLTAll)
	// Prefetching must improve on the baseline for a streaming
	// benchmark. CoLT-All's share is whatever the registry's prefetch
	// experiment reports for Bzip2 (the full-scale comparison shows
	// CoLT ahead; at quick scale it can read zero).
	if pf.L2Eliminated <= 0 {
		t.Fatalf("prefetching eliminated %.1f%%", pf.L2Eliminated)
	}
	rows, err := experiments.PrefetchComparison(experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Bench != "Bzip2" {
			continue
		}
		if pf.L2Eliminated != row.PrefetchElim || all.L2Eliminated != row.AllElim {
			t.Fatalf("prefetch/colt-all eliminated %v/%v%%, the prefetch experiment %v/%v%%",
				pf.L2Eliminated, all.L2Eliminated, row.PrefetchElim, row.AllElim)
		}
		return
	}
	t.Fatal("the prefetch experiment has no Bzip2 row")
}

// TestOptionsResolveToPresets: the package's presets are the engine's,
// field for field, and zero Options resolve to the default preset.
func TestOptionsResolveToPresets(t *testing.T) {
	for _, c := range []struct {
		name string
		got  experiments.Options
		want experiments.Options
	}{
		{"QuickOptions", QuickOptions().internal(), experiments.QuickOptions()},
		{"DefaultOptions", DefaultOptions().internal(), experiments.DefaultOptions()},
		{"zero Options", Options{}.internal(), experiments.DefaultOptions()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s resolves to %+v, want %+v", c.name, c.got, c.want)
		}
	}
}

// TestFacadeMatchesRegistry: under the paper's kernels the package
// reports the registry's own rows. RunBenchmark under DefaultKernel
// equals the standard evaluation (Figures 18 and 21) for every
// benchmark, and MeasureContiguity equals the contiguity CDFs of the
// three kernels Figures 7-15 study.
func TestFacadeMatchesRegistry(t *testing.T) {
	ev, err := experiments.RunStandardEvaluation(experiments.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	elims, perfs := ev.Eliminations(), ev.Performance()
	if len(elims) != len(Benchmarks()) || len(perfs) != len(Benchmarks()) {
		t.Fatalf("evaluation has %d/%d rows, want %d", len(elims), len(perfs), len(Benchmarks()))
	}
	for i, bench := range Benchmarks() {
		rep, err := RunBenchmark(bench, DefaultKernel(), QuickOptions(), AllPolicies())
		if err != nil {
			t.Fatal(err)
		}
		if rep.PerfectSpeedupPct != perfs[i].Perfect {
			t.Errorf("%s: perfect-TLB speedup %v, Figure 21 %v", bench, rep.PerfectSpeedupPct, perfs[i].Perfect)
		}
		for _, p := range AllPolicies()[1:] {
			pr, _ := rep.PolicyReport(p)
			name := string(p)
			if pr.L1Eliminated != elims[i].L1[name] || pr.L2Eliminated != elims[i].L2[name] {
				t.Errorf("%s %s: eliminated L1/L2 %v/%v%%, Figure 18 %v/%v%%", bench, p,
					pr.L1Eliminated, pr.L2Eliminated, elims[i].L1[name], elims[i].L2[name])
			}
			if pr.SpeedupPct != perfs[i].Gains[name] {
				t.Errorf("%s %s: speedup %v%%, Figure 21 %v%%", bench, p, pr.SpeedupPct, perfs[i].Gains[name])
			}
		}
	}
	for _, c := range []struct {
		kernel KernelConfig
		setup  experiments.SystemSetup
	}{
		{DefaultKernel(), experiments.SetupTHSOnNormal},
		{KernelConfig{}, experiments.SetupTHSOffNormal},
		{KernelConfig{LowCompaction: true}, experiments.SetupTHSOffLow},
	} {
		rows, err := experiments.ContiguityCDFs(c.setup, experiments.QuickOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			rep, err := MeasureContiguity(row.Bench, c.kernel, QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Average != row.Average || rep.FracOver512 != row.FracOver512 || rep.SuperpagePages != row.SuperPages {
				t.Errorf("%s under %s: average %v, >512 %v, superpages %d; the CDF figure %v, %v, %d",
					row.Bench, c.setup.Name, rep.Average, rep.FracOver512, rep.SuperpagePages,
					row.Average, row.FracOver512, row.SuperPages)
			}
		}
	}
}
