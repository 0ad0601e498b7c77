// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp table1|contig|fig16|...|all [-quick] [-parallel N] [-scale F] [-refs N] [-frames N]
//	            [-out DIR] [-hist] [-trace-events DIR] [-progress]
//	            [-faults SPEC] [-strict-invariants] [-job-timeout D] [-retries N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Run with -exp list (or an unknown name) to see every experiment.
// With -out DIR, each experiment additionally writes its
// machine-readable report to DIR/<name>.json (stable, key-sorted JSON —
// see internal/metrics and EXPERIMENTS.md) plus a DIR/<name>.timing.json
// wall-clock sidecar.
//
// Observability: -hist embeds deterministic log2 histograms (coalescing
// run length, walk depth/cycles, contiguity runs, TLB entry lifetimes)
// and simulated-time phase spans into each report record; -trace-events
// DIR writes one Chrome trace-event file per experiment
// (DIR/<name>.trace.json, loadable in ui.perfetto.dev); -progress
// prints live per-job phase and completion lines to stderr. None of
// these change simulation results.
//
// -faults injects deterministic failures ("site=rate,..." or "all=rate";
// see internal/fault); failed jobs are retried -retries times, then
// recorded in the report's Failures section while surviving jobs still
// render. -strict-invariants runs the internal/invariant auditors at
// every checkpoint. -job-timeout bounds each scheduler job's wall time.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"colt/internal/experiments"
	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/stats"
	"colt/internal/telemetry"
	"colt/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "all", `experiment to run ("list" prints the choices)`)
		quick    = flag.Bool("quick", false, "use small quick-run settings")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"concurrent (benchmark × setup) jobs; results are identical for every value")
		scale      = flag.Float64("scale", 0, fmt.Sprintf("override workload footprint scale (at most %d)", experiments.MaxScale))
		refs       = flag.Int("refs", 0, "override measured references per benchmark")
		frames     = flag.Int("frames", 0, fmt.Sprintf("override physical memory frames (at most %d)", experiments.MaxFrames))
		seed       = flag.Uint64("seed", 0, "override RNG seed")
		outDir     = flag.String("out", "", "directory for machine-readable metrics JSON (one report per experiment)")
		hist       = flag.Bool("hist", false, "embed telemetry histograms and phase spans into metrics records")
		traceDir   = flag.String("trace-events", "", "directory for Chrome trace-event JSON (one trace per experiment)")
		progress   = flag.Bool("progress", false, "print live per-job progress to stderr")
		faults     = flag.String("faults", "", `deterministic fault injection, "site=rate,..." or "all=rate"`)
		strict     = flag.Bool("strict-invariants", false, "run invariant auditors at every checkpoint")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock limit per scheduler job (0 = none)")
		retries    = flag.Int("retries", 1, "deterministic retries per job for injected faults")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Parallel = *parallel
	if math.IsNaN(*scale) || *scale > experiments.MaxScale {
		fmt.Fprintf(os.Stderr, "experiments: -scale must be at most %d, got %g\n", experiments.MaxScale, *scale)
		os.Exit(2)
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *refs > 0 {
		opts.Refs = *refs
		opts.Warmup = *refs / 10
	}
	if *frames > experiments.MaxFrames {
		fmt.Fprintf(os.Stderr, "experiments: -frames must be at most %d, got %d\n", experiments.MaxFrames, *frames)
		os.Exit(2)
	}
	if *frames > 0 {
		opts.Frames = *frames
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	spec, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -faults:", err)
		os.Exit(2)
	}
	opts.Faults = spec
	opts.CheckInvariants = *strict
	opts.JobTimeout = *jobTimeout
	if *retries < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -retries must be >= 0, got", *retries)
		os.Exit(2)
	}
	opts.Retries = *retries
	opts.Histograms = *hist
	if *progress {
		opts.Progress = telemetry.NewReporter(os.Stderr)
	}
	// SIGINT/SIGTERM cancel the run's context instead of killing the
	// process: in-flight jobs abort at their next checkpoint,
	// undispatched jobs become canceled-failure records, and reports
	// for completed jobs are still flushed below — never a file torn
	// mid-write. A second signal kills immediately (NotifyContext
	// restores default handling once the context is canceled).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Ctx = ctx

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err = run(*exp, opts, *outDir, *traceDir)

	if *memProfile != "" {
		if perr := writeHeapProfile(*memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "experiments:", perr)
			if err == nil {
				err = perr
			}
		}
	}
	// A signal that arrived late enough for the run to degrade
	// gracefully (completed jobs rendered, the rest recorded as
	// canceled failures) produces no error — but an interrupted run
	// must still exit non-zero.
	if err == nil && ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed jobs were rendered and reports flushed")
		os.Exit(1)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; completed jobs were rendered and reports flushed")
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap after a final GC, so the profile
// reflects live allocations rather than garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// calibrateEntry is the CLI's one diagnostic entry: it runs by name
// only, never under -exp all.
var calibrateEntry = experiments.NamedExperiment{
	Name: "calibrate", Desc: "Diagnostic: per-benchmark calibration summary", Text: calibrate,
}

func run(exp string, opts experiments.Options, outDir, traceDir string) error {
	reg := experiments.SharedRegistry()
	if exp == "list" {
		for _, e := range append(reg, calibrateEntry) {
			fmt.Printf("  %-14s %s\n", e.Name, e.Desc)
		}
		fmt.Printf("  %-14s every experiment above (except diagnostics)\n", "all")
		return nil
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("creating -out directory: %w", err)
		}
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return fmt.Errorf("creating -trace-events directory: %w", err)
		}
	}
	if exp == "all" {
		for _, e := range reg {
			if err := runOne(e, opts, outDir, traceDir); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range append(reg, calibrateEntry) {
		if e.Name == exp {
			return runOne(e, opts, outDir, traceDir)
		}
	}
	names := append(experiments.RegistryNames(), calibrateEntry.Name, "all")
	sort.Strings(names)
	return fmt.Errorf("unknown experiment %q; valid experiments: %s", exp, strings.Join(names, ", "))
}

// runOne executes one registry entry, collecting and writing its
// metrics report when -out is set and its Chrome trace when
// -trace-events is set. With -faults, a collector is attached even
// without -out so injected job failures are reported rather than
// silently dropped with the degraded rows.
func runOne(e experiments.NamedExperiment, opts experiments.Options, outDir, traceDir string) error {
	if traceDir != "" {
		// A fresh set per experiment, so each registry entry exports its
		// own DIR/<name>.trace.json.
		opts.Events = new(telemetry.TraceSet)
	}
	var col *metrics.Collector
	if outDir != "" || opts.Faults.Enabled() {
		col = metrics.NewCollector()
		opts.Metrics = col
	}
	text, runErr := e.Text(opts)
	fmt.Print(text)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	// On interruption (runErr wraps context.Canceled) fall through:
	// the collector still holds every completed record plus the
	// canceled-failure entries, and flushing them is the whole point
	// of draining instead of dying.
	if col != nil {
		printFailures(e.Name, col)
	}
	if outDir != "" {
		report, err := col.Report(e.Name, opts.Snapshot()).StableJSON()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := os.WriteFile(filepath.Join(outDir, e.Name+".json"), report, 0o644); err != nil {
			return fmt.Errorf("%s: writing report: %w", e.Name, err)
		}
		timing, err := col.TimingJSON(e.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		if err := os.WriteFile(filepath.Join(outDir, e.Name+".timing.json"), timing, 0o644); err != nil {
			return fmt.Errorf("%s: writing timing report: %w", e.Name, err)
		}
	}
	if traceDir != "" {
		if err := writeTrace(filepath.Join(traceDir, e.Name+".trace.json"), opts.Events); err != nil {
			return fmt.Errorf("%s: writing trace events: %w", e.Name, err)
		}
	}
	return runErr
}

// writeTrace renders one experiment's collected job traces as a Chrome
// trace-event file.
func writeTrace(path string, events *telemetry.TraceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := events.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFailures summarizes the jobs an experiment lost to injected
// faults or timeouts; surviving rows have already been rendered.
func printFailures(name string, col *metrics.Collector) {
	failures := col.Failures()
	if len(failures) == 0 {
		return
	}
	fmt.Printf("%s: %d job(s) failed and were dropped from the tables above:\n", name, len(failures))
	for _, f := range failures {
		detail := fmt.Sprintf("after %d attempt(s)", f.Attempts)
		if f.TimedOut {
			detail = "timed out"
		}
		fmt.Printf("  %s/%s (%s, %s): %s\n", f.Bench, f.Setup, f.Kind, detail, f.Error)
	}
}

// calibrate renders a compact per-benchmark summary used while tuning
// the workload models: baseline MPMI, contiguity, and eliminations.
func calibrate(opts experiments.Options) (string, error) {
	var b strings.Builder
	b.WriteString("bench        contig  L1MPMI  L2MPMI  |  SA-L1  SA-L2  FA-L1  FA-L2  All-L1 All-L2\n")
	for _, name := range workload.Names() {
		spec, _ := workload.ByName(name)
		res, err := experiments.RunBenchmark(spec, experiments.SetupTHSOnNormal, opts, experiments.StandardVariants())
		if err != nil {
			return b.String(), err
		}
		base, _ := res.Variant("baseline")
		l1, l2 := base.MPMI()
		// PercentEliminated is zero-guarded: a quick run short enough to
		// record no baseline misses reports 0, not NaN/Inf.
		elim := func(v string) (float64, float64) {
			x, _ := res.Variant(v)
			e1 := stats.PercentEliminated(float64(base.TLB.L1Misses), float64(x.TLB.L1Misses))
			e2 := stats.PercentEliminated(float64(base.TLB.L2Misses), float64(x.TLB.L2Misses))
			return e1, e2
		}
		sa1, sa2 := elim("colt-sa")
		fa1, fa2 := elim("colt-fa")
		al1, al2 := elim("colt-all")
		fmt.Fprintf(&b, "%-12s %6.1f %7.0f %7.0f  | %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f\n",
			name, res.Contig.AverageContiguity(), l1, l2, sa1, sa2, fa1, fa2, al1, al2)
	}
	return b.String(), nil
}
