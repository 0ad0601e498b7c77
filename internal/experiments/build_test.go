package experiments

import (
	"testing"

	"colt/internal/workload"
)

// compactingSetups are the setups whose build settles with normal
// compaction and no memhog: the golden slice's systems.
var compactingSetups = []SystemSetup{SetupTHSOnNormal, SetupTHSOffNormal}

// TestSettleReachesFixpoint pins the property buildSystem's early settle
// stop rests on at the golden scale: for every benchmark under both
// compacting setups the settle loop ends at a fixpoint, so one more
// Compact(-1) after the build moves nothing and fails no migration.
func TestSettleReachesFixpoint(t *testing.T) {
	opts := GoldenOptions()
	for _, spec := range workload.All() {
		for _, setup := range compactingSetups {
			sys, _, _, err := buildSystem(setup, opts, spec.Name, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, setup.Name, err)
			}
			before := sys.Compactor.Stats()
			moved := sys.Compactor.Compact(-1)
			after := sys.Compactor.Stats()
			if moved != 0 || after.MigrateFails != before.MigrateFails {
				t.Errorf("%s/%s: a pass after the build moved %d pages and failed %d migrations, want 0 and 0",
					spec.Name, setup.Name, moved, after.MigrateFails-before.MigrateFails)
			}
		}
	}
}

// BenchmarkBuildSystem times the OS-model build of the golden slice:
// the 14 benchmarks under both compacting setups, each booted, churned,
// settled and loaded with its workload through newBenchSim with the
// four standard variants attached, then released as RunBenchmark
// releases it. It is the in-process A/B harness for build changes
// (`go test ./internal/experiments -run '^$' -bench BuildSystem`).
func BenchmarkBuildSystem(b *testing.B) {
	opts := GoldenOptions()
	specs := workload.All()
	variants := StandardVariants()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			for _, setup := range compactingSetups {
				sim, _, err := newBenchSim(spec, setup, opts, variants)
				if err != nil {
					b.Fatal(err)
				}
				sim.release()
			}
		}
	}
}
