package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/metrics"
	"colt/internal/workload"
)

// recycleFrames is a machine size no other test in this package uses,
// so until this file's jobs release a system of that size, the mm
// pools hold no frame arrays or buddy links for it and a job really
// allocates them.
const recycleFrames = 1 << 16

// recycleJob runs one quick Figure 18 job (every standard variant
// under the fig18 setup) on a recycleFrames machine and returns its
// report bytes. RunBenchmark releases the job's system and caches on
// return, so each call feeds the pools the next call draws from.
func recycleJob(bench string, seed uint64) ([]byte, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	opts := QuickOptions()
	opts.Frames = recycleFrames
	opts.Refs, opts.Warmup = 4_000, 400
	opts.Seed = seed
	opts.Metrics = metrics.NewCollector()
	if _, err := RunBenchmark(spec, SetupTHSOnNormal, opts, StandardVariants()); err != nil {
		return nil, err
	}
	return opts.Metrics.Report("recycle", opts.Snapshot()).StableJSON()
}

// TestRecycledJobMatchesFresh pins recycling as exact: a job whose
// frame arrays, buddy links, page-table nodes and cache lanes come
// from the pools, after a job of another benchmark and seed dirtied
// and released them, renders the same bytes as the same job on freshly
// allocated memory.
func TestRecycledJobMatchesFresh(t *testing.T) {
	fresh, err := recycleJob("Gobmk", 0xC017)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recycleJob("Mcf", 99); err != nil {
		t.Fatal(err)
	}
	reused, err := recycleJob("Gobmk", 0xC017)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, reused) {
		t.Fatalf("recycled job differs from the fresh one:\n%s", strings.Join(metrics.Diff(reused, fresh), "\n"))
	}
}

// poisonCacheLanes fills n levels of the paper LLC's geometry with
// dirty lines from all over a recycleFrames machine's memory and
// releases them, so the next levels of that size take lanes whose tag
// words name lines a job on that machine touches, and whose order
// words are scrambled. (Lines above the machine's memory would be no
// poison: LRU evicts a line nobody touches before any line a job
// brought in, just as it fills an empty way first.)
func poisonCacheLanes(n int) {
	r := rand.New(rand.NewSource(int64(n)))
	levels := make([]*cache.Cache, n)
	for i := range levels {
		levels[i] = cache.New(cache.Config{Name: "poison", SizeBytes: 4 << 20, Ways: 16, HitLatency: 1}, &cache.Memory{})
		for range 4 * 65536 {
			levels[i].Access(arch.PAddr(r.Int63n(recycleFrames*arch.PageSize)), true)
		}
	}
	for _, c := range levels {
		c.Release()
	}
}

// TestPoisonedCacheLanesMatchFresh pins the front's uncleared variant
// LLCs as exact: a job whose variants' LLC lanes come from the pools
// full of stale dirty lines renders the same bytes as the same job
// before the poisoning. A variant that read one of its LLC's sets
// before a fork wrote it would hit on those lines.
func TestPoisonedCacheLanesMatchFresh(t *testing.T) {
	fresh, err := recycleJob("Gobmk", 0xC017)
	if err != nil {
		t.Fatal(err)
	}
	// A job takes one LLC lane per variant plus the front's shared one.
	poisonCacheLanes(len(StandardVariants()) + 2)
	poisoned, err := recycleJob("Gobmk", 0xC017)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, poisoned) {
		t.Fatalf("job on poisoned cache lanes differs from the fresh one:\n%s", strings.Join(metrics.Diff(poisoned, fresh), "\n"))
	}
}

// TestParallelRecycledJobsIsolated runs build–simulate–release cycles
// on 4 goroutines at once, 3 each, so jobs take arrays and nodes that
// other goroutines released mid-flight. Every cycle must render the
// serial result: no job may see another's state.
func TestParallelRecycledJobsIsolated(t *testing.T) {
	const goroutines, cycles = 4, 3
	want, err := recycleJob("Gobmk", 0xC017)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines) // at most one send each
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				got, err := recycleJob("Gobmk", 0xC017)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Sprintf("goroutine %d cycle %d: report differs from the serial one", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
