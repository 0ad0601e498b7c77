package experiments

import (
	"testing"

	"colt/internal/core"
	"colt/internal/telemetry"
	"colt/internal/workload"
)

// TestSteadyStateAccessZeroAlloc pins the simulator's per-reference
// cost: after warmup, one benchSim.step — workload generation, VPN
// resolve, every variant's TLB probe + possible page walk, and the
// data-cache access — must not touch the heap. Any regression here
// multiplies across the millions of references of a full sweep.
func TestSteadyStateAccessZeroAlloc(t *testing.T) {
	opts := QuickOptions()
	opts.Refs = 0
	stepAllocFree(t, opts)
}

// TestSteadyStateAccessZeroAllocWithTelemetry pins the same bound with
// the full observability stack live: histograms on, an event tracer
// attached, per-variant sinks wired into every TLB level, and the
// reference clock advancing. The tracer's ring and the sinks'
// fixed-size histograms are allocated up front, so emitting events and
// observing values must stay off the heap.
func TestSteadyStateAccessZeroAllocWithTelemetry(t *testing.T) {
	opts := QuickOptions()
	opts.Refs = 0
	opts.Histograms = true
	opts.Events = new(telemetry.TraceSet)
	stepAllocFree(t, opts)
}

// stepAllocFree builds a two-variant Mcf benchSim under opts, warms it
// up, and asserts steady-state steps allocate nothing.
func stepAllocFree(t *testing.T, opts Options) {
	t.Helper()
	spec, err := workload.ByName("Mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newBenchSim(spec, SetupTHSOnNormal, opts, []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "colt-all", Config: core.CoLTAllConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: populate TLBs, walk caches, and data caches so the
	// measured steps exercise the steady-state mix of hits and misses
	// rather than cold-start fills.
	ref := 0
	for ; ref < opts.Warmup; ref++ {
		if err := b.step(ref); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		// Keep ref advancing so the sampled oracle check (every 1024
		// refs) is included in the average at its real frequency: 2000
		// consecutive refs always cross at least one oracle tick.
		if err := b.step(ref); err != nil {
			t.Fatal(err)
		}
		ref++
	})
	if avg != 0 {
		t.Errorf("benchSim.step allocates %.3f times per reference in steady state, want 0", avg)
	}
}
