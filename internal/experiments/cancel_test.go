package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"colt/internal/metrics"
	"colt/internal/workload"
)

// TestMapJobsCancelRendersPartial: cancellation mid-fan-out degrades
// like fault injection — completed jobs survive, undispatched jobs
// become canceled-failure records, and the run returns its partial
// results instead of dying. This is the SIGINT path of
// cmd/experiments and the DELETE path of coltd.
func TestMapJobsCancelRendersPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := QuickOptions()
	opts.Parallel = 1
	opts.Ctx = ctx
	opts.Metrics = metrics.NewCollector()
	items := []int{0, 1, 2, 3}
	results, ok, err := mapJobs(opts, items,
		func(i int) jobMeta { return jobMeta{kind: "cancel-test", bench: "b", setup: string(rune('a' + i))} },
		func(i int, o Options) (int, error) {
			if i == 0 {
				cancel() // interrupt after the first job completes
			}
			return i * 10, nil
		})
	if err != nil {
		t.Fatalf("mapJobs returned error instead of partial results: %v", err)
	}
	if !ok[0] || results[0] != 0 {
		t.Fatalf("completed job lost: ok=%v results=%v", ok, results)
	}
	survivors := 0
	for _, o := range ok {
		if o {
			survivors++
		}
	}
	if survivors == len(items) {
		t.Fatal("cancellation did not skip any job")
	}
	fails := opts.Metrics.Failures()
	if len(fails) != len(items)-survivors {
		t.Fatalf("recorded %d failures, want %d", len(fails), len(items)-survivors)
	}
	for _, f := range fails {
		if !f.Canceled {
			t.Errorf("failure %+v not marked canceled", f)
		}
		if f.Kind != "cancel-test" {
			t.Errorf("failure kind %q, want cancel-test", f.Kind)
		}
	}
}

// TestMapJobsAllCanceledReturnsError: a run canceled before any job
// completed has nothing to render and must surface the error.
func TestMapJobsAllCanceledReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := QuickOptions()
	opts.Parallel = 1
	opts.Ctx = ctx
	_, _, err := mapJobs(opts, []int{0, 1},
		func(i int) jobMeta { return jobMeta{kind: "cancel-test", bench: "b", setup: "s"} },
		func(i int, o Options) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// loopCanceledCtx is a context whose Err is nil on its first call and
// context.Canceled from the second on. A driver that checks only once,
// before its reference loop, runs to completion under it; only a check
// inside the loop returns the error.
type loopCanceledCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *loopCanceledCtx) Err() error {
	if c.calls.Add(1) < 2 {
		return nil
	}
	return context.Canceled
}

// TestRunBenchmarkHonorsCancellation: an in-flight simulation aborts
// at a cancellation checkpoint instead of running to completion — in
// every driver with a reference loop, not only RunBenchmark.
func TestRunBenchmarkHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := QuickOptions()
	opts.Ctx = ctx
	spec := mustSpec(t, "Mcf")
	if _, err := RunBenchmark(spec, SetupTHSOnNormal, opts, StandardVariants()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBenchmark err = %v, want context.Canceled", err)
	}
	if _, err := RunContiguity(spec, SetupTHSOnNormal, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContiguity err = %v, want context.Canceled", err)
	}

	inLoop := func() Options {
		o := QuickOptions()
		o.Ctx = &loopCanceledCtx{Context: context.Background()}
		return o
	}
	if _, err := RunBenchmark(spec, SetupTHSOnNormal, inLoop(), StandardVariants()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBenchmark in-loop err = %v, want context.Canceled", err)
	}
	if _, err := runVirtualized(spec, inLoop()); !errors.Is(err, context.Canceled) {
		t.Fatalf("runVirtualized err = %v, want context.Canceled", err)
	}
	if _, err := ContiguityTimeline(spec, SetupTHSOnNormal, inLoop(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("ContiguityTimeline err = %v, want context.Canceled", err)
	}
}

// TestRegistryResolvesEveryName: the serving registry is internally
// consistent and its unknown-name error teaches the valid set.
func TestRegistryResolvesEveryName(t *testing.T) {
	reg := Registry()
	if len(reg) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.Name == "" || e.Desc == "" || e.Run == nil || e.Text == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
		got, err := ByName(e.Name)
		if err != nil || got.Name != e.Name {
			t.Fatalf("ByName(%q) = %+v, %v", e.Name, got, err)
		}
	}
	_, err := ByName("no-such-experiment")
	if err == nil {
		t.Fatal("ByName accepted an unknown experiment")
	}
	for _, name := range RegistryNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}

// TestRegistryRunEmitsRecords: a registry entry run with a collector
// attached produces a non-empty, finite, stable report (smoke on the
// cheapest entry).
func TestRegistryRunEmitsRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	e, err := ByName("table1")
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Refs = 2_000
	opts.Warmup = 200
	opts.Metrics = metrics.NewCollector()
	if err := e.Run(opts); err != nil {
		t.Fatal(err)
	}
	if opts.Metrics.Len() == 0 {
		t.Fatal("registry run emitted no records")
	}
	if _, err := opts.Metrics.Report(e.Name, opts.Snapshot()).StableJSON(); err != nil {
		t.Fatal(err)
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
