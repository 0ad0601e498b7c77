package experiments

import (
	"fmt"
	"time"

	"colt/internal/contig"
	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/stats"
	"colt/internal/vm"
	"colt/internal/workload"
)

// The paper's kernel instrumentation walks the page table every five
// seconds, "capturing contiguity changes through the benchmark run"
// (§5.1.1). ContiguityTimeline reproduces that methodology: it samples
// the workload's page-table contiguity at regular points across the
// run — after the build, and between slices of foreground references
// interleaved with background system activity — rather than only once.

// TimelinePoint is one periodic page-table scan.
type TimelinePoint struct {
	// RefsDone is how many foreground references had executed.
	RefsDone int
	// PageAvg and RunAvg are the two contiguity averages.
	PageAvg, RunAvg float64
	// MappedPages is the workload's resident page count (drops under
	// swap pressure).
	MappedPages int
	// Superpages counts currently huge-mapped pages.
	Superpages int
}

// ContiguityTimeline runs one benchmark under the setup and scans its
// page table at `samples` evenly spaced points.
func ContiguityTimeline(spec workload.Spec, setup SystemSetup, opts Options, samples int) ([]TimelinePoint, error) {
	if samples < 2 {
		return nil, fmt.Errorf("timeline needs at least 2 samples, got %d", samples)
	}
	start := time.Now()
	sys, master, plane, err := buildSystem(setup, opts, spec.Name, nil)
	if err != nil {
		return nil, err
	}
	proc, err := sys.NewProcess()
	if err != nil {
		return nil, err
	}
	proc.EnableSwap()
	w, err := workload.Build(scaledSpec(spec, opts), proc, master.Stream("workload"))
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", spec.Name, err)
	}
	churnRNG := master.Stream("midrun-churn")
	churnProc, err := sys.NewProcess()
	if err != nil {
		return nil, err
	}
	var churnLive []*vm.Region

	scan := func(refs int) TimelinePoint {
		res := contig.Scan(proc.Table)
		return TimelinePoint{
			RefsDone:    refs,
			PageAvg:     res.AverageContiguity(),
			RunAvg:      res.RunWeightedAverage(),
			MappedPages: res.NonSuperPages + res.SuperPages,
			Superpages:  res.SuperPages,
		}
	}

	points := []TimelinePoint{scan(0)}
	slice := opts.Refs / (samples - 1)
	if slice == 0 {
		slice = 1
	}
	done := 0
	for s := 1; s < samples; s++ {
		for i := 0; i < slice; i++ {
			if done%ctxCheckEvery == 0 {
				if err := opts.canceled(); err != nil {
					return nil, fmt.Errorf("%s: %w", spec.Name, err)
				}
			}
			if err := plane.Fail(fault.SiteTraceCorrupt); err != nil {
				return nil, fmt.Errorf("%s: decoding trace record %d: %w", spec.Name, done, err)
			}
			va, _, _ := w.Next()
			vpn := va.Page()
			// Touch pages so swap pressure and re-faults happen as in
			// a real run (no TLB simulation needed for contiguity).
			if _, _, ok := proc.Resolve(vpn); !ok {
				if _, err := proc.EnsureResident(vpn); err != nil {
					return nil, err
				}
			}
			done++
			if i%512 == 511 {
				// Background OS activity between slices of foreground
				// work.
				if reg, err := churnProc.Malloc(churnRNG.IntRange(1, 24)); err == nil {
					churnLive = append(churnLive, reg)
					if len(churnLive) > 32 {
						if err := churnProc.Free(churnLive[0]); err != nil {
							return nil, err
						}
						churnLive = churnLive[1:]
					}
				}
			}
		}
		sys.Idle(32)
		points = append(points, scan(done))
	}
	if err := auditSystem(opts, "at timeline end", sys); err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		rec := metrics.Record{
			Kind:  metrics.KindTimeline,
			Bench: spec.Name,
			Setup: setup.Name,
			Seed:  seedFor(opts.Seed, spec.Name, setup.Name),
		}
		for _, p := range points {
			rec.Timeline = append(rec.Timeline, metrics.TimelinePoint{
				RefsDone:    p.RefsDone,
				PageAvg:     p.PageAvg,
				RunAvg:      p.RunAvg,
				MappedPages: p.MappedPages,
				Superpages:  p.Superpages,
			})
		}
		opts.Metrics.Add(rec, time.Since(start))
	}
	return points, nil
}

// Timelines runs ContiguityTimeline for several benchmarks, fanning
// them across the scheduler; results keep the order of specs. Under
// fault injection a failed benchmark leaves a nil entry at its
// position rather than failing the whole sweep.
func Timelines(specs []workload.Spec, setup SystemSetup, opts Options, samples int) ([][]TimelinePoint, error) {
	series, ok, err := mapJobs(opts, specs,
		func(spec workload.Spec) jobMeta {
			return jobMeta{kind: "timeline", bench: spec.Name, setup: setup.Name}
		},
		func(spec workload.Spec, opts Options) ([]TimelinePoint, error) {
			return ContiguityTimeline(spec, setup, opts, samples)
		})
	if err != nil {
		return nil, err
	}
	// Copy survivors into a fresh slice: a timed-out job's goroutine may
	// still be writing into the scheduler's result slot.
	out := make([][]TimelinePoint, len(specs))
	for i := range series {
		if ok[i] {
			out[i] = series[i]
		}
	}
	return out, nil
}

// RenderTimeline formats a timeline as text.
func RenderTimeline(bench string, setup SystemSetup, points []TimelinePoint) string {
	t := stats.NewTable("Refs", "PageAvg", "RunAvg", "Mapped", "Superpages")
	for _, p := range points {
		t.AddRow(p.RefsDone, p.PageAvg, p.RunAvg, p.MappedPages, p.Superpages)
	}
	return fmt.Sprintf("Contiguity over time: %s under %s\n%s", bench, setup.Name, t.String())
}
