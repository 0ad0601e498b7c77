package experiments

import (
	"fmt"

	"colt/internal/workload"
)

// HotPath is the standing hot-loop benchmark fixture: Mcf under "THS
// on, normal compaction" with the standard four variants at
// QuickOptions scale, warmed up and ready to step. BenchmarkHotPath
// (repo root) drives Steps, which runs exactly the per-reference step
// RunBenchmark runs — the fixture exists so an in-process A/B of two
// builds can meter steady-state stepping without re-paying system
// build and warmup per measurement. The end-to-end number for the same
// loop is the repository benchmark's sim-long pass time (bench/).
type HotPath struct {
	b   *benchSim
	ref int
}

// NewHotPath builds and warms the fixture.
func NewHotPath() (*HotPath, error) {
	opts := QuickOptions()
	spec, err := workload.ByName("Mcf")
	if err != nil {
		return nil, err
	}
	sim, _, err := newBenchSim(spec, SetupTHSOnNormal, opts, StandardVariants())
	if err != nil {
		return nil, err
	}
	h := &HotPath{b: sim}
	if err := h.Steps(opts.Warmup); err != nil {
		return nil, fmt.Errorf("hot-path warmup: %w", err)
	}
	return h, nil
}

// Steps runs n references through step.
func (h *HotPath) Steps(n int) error {
	for i := 0; i < n; i++ {
		if err := h.b.step(h.ref); err != nil {
			return err
		}
		h.ref++
	}
	return nil
}

// Variants reports how many TLB variants each reference is simulated
// against (refs/sec counts references, each fanned across variants).
func (h *HotPath) Variants() int { return len(h.b.sims) }
