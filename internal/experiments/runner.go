// Package experiments reproduces the paper's evaluation: every table
// and figure has a driver here that builds the simulated system,
// fragments it with background load, runs the benchmark models, and
// simulates all TLB configurations over one identical reference stream.
// DESIGN.md's per-experiment index maps paper artifacts to the drivers
// in this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/contig"
	"colt/internal/core"
	"colt/internal/fault"
	"colt/internal/invariant"
	"colt/internal/metrics"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/perf"
	"colt/internal/rng"
	"colt/internal/sched"
	"colt/internal/telemetry"
	"colt/internal/vm"
	"colt/internal/workload"
)

// SystemSetup is one kernel configuration of paper §5.1.1.
type SystemSetup struct {
	Name       string
	THP        bool
	Compaction mm.CompactionMode
	MemhogPct  int
}

// The five configurations the paper focuses on.
var (
	SetupTHSOnNormal   = KernelSetup(true, mm.CompactionNormal, 0)
	SetupTHSOffNormal  = KernelSetup(false, mm.CompactionNormal, 0)
	SetupTHSOffLow     = KernelSetup(false, mm.CompactionLow, 0)
	SetupTHSOnMemhog25 = KernelSetup(true, mm.CompactionNormal, 25)
	SetupTHSOnMemhog50 = KernelSetup(true, mm.CompactionNormal, 50)
)

// KernelSetup returns a kernel configuration under its one name, such
// as "THS on, normal compaction" or, under memhog, "THS on, normal
// compaction, memhog(25)". The name seeds the job's streams (seedFor),
// so a configuration simulates the same stream whichever front end
// asks for it. Only the memhog sweep names its setups otherwise.
func KernelSetup(thp bool, compaction mm.CompactionMode, memhogPct int) SystemSetup {
	ths := "off"
	if thp {
		ths = "on"
	}
	name := fmt.Sprintf("THS %s, %s compaction", ths, compaction)
	if memhogPct > 0 {
		name += fmt.Sprintf(", memhog(%d)", memhogPct)
	}
	return SystemSetup{Name: name, THP: thp, Compaction: compaction, MemhogPct: memhogPct}
}

// Setups returns the paper's five studied configurations.
func Setups() []SystemSetup {
	return []SystemSetup{SetupTHSOnNormal, SetupTHSOffNormal, SetupTHSOffLow, SetupTHSOnMemhog25, SetupTHSOnMemhog50}
}

// MaxFrames is the largest Options.Frames a caller outside the
// package may ask for (a coltd spec, the experiments CLI): 16× the
// DefaultOptions machine. A job keeps ~25 bytes of host memory per
// simulated frame (the frame bitmaps and owners, the buddy links), so
// one job at this limit holds ~105 MB. A host allocation that fails
// kills the whole process rather than one job, so a larger request is
// refused up front.
const MaxFrames = 1 << 22

// MaxScale is the largest Options.Scale a caller outside the package
// may ask for, on the same grounds as MaxFrames. The largest benchmark
// at DefaultOptions is Mcf, with 500 + 40,000 × 3.4 = 136,500 pages per
// unit of scale, so at this limit its footprint (~4.1M pages) still
// fits within MaxFrames frames.
const MaxScale = 30

// Options controls simulation size. Defaults reproduce the paper at a
// laptop-feasible scale; Quick shrinks everything for tests.
type Options struct {
	Frames int     // physical memory frames
	Scale  float64 // workload footprint scale factor
	// ColdScale additionally scales only the bulk data, mapping the
	// paper's footprint-to-memory ratios onto the simulated machine.
	ColdScale float64
	ChurnOps  int // background fragmentation operations before the run
	Warmup    int // warmup references (stats reset afterwards)
	Refs      int // measured references
	Seed      uint64
	// MidRunChurn injects OS activity (small alloc/free bursts, hence
	// compaction and shootdowns) during the measured run.
	MidRunChurn bool
	// Parallel is the experiment engine's worker count: how many
	// (benchmark × setup) jobs run concurrently. 0 selects
	// runtime.GOMAXPROCS(0). Results are identical for every value —
	// each job's randomness derives from (Seed, benchmark, setup) via
	// rng.Stream, never from scheduling order.
	Parallel int
	// Metrics, when non-nil, receives one structured Record per
	// (benchmark × setup) job from every driver, forming the
	// machine-readable run report (see internal/metrics). Collection
	// never affects simulation results.
	Metrics *metrics.Collector
	// Faults configures the deterministic fault-injection plane: each
	// job builds a private fault.Plane seeded from
	// (Seed, benchmark, setup, attempt), so the injected fault sequence
	// is a function of the job identity alone — identical at every
	// Parallel width. The zero Spec disables injection entirely: no
	// plane is built and no hot path draws a random number.
	Faults fault.Spec
	// CheckInvariants runs the internal/invariant auditors at job
	// checkpoints (after system build, after warmup, after each mid-run
	// churn burst, at run end). A violation fails that job with a
	// structured error; it never panics and never stops sibling jobs.
	CheckInvariants bool
	// Retries is how many additional deterministic attempts a job gets
	// after failing on an INJECTED fault (each attempt reseeds the
	// fault plane with its attempt number, so the retry trajectory is
	// itself deterministic). Real errors are never retried.
	Retries int
	// JobTimeout bounds one scheduler job's wall-clock runtime,
	// retries included (0 = unbounded). Timeouts are wall-clock events:
	// runs that must stay deterministic use a bound generous enough
	// that it only fires on hangs.
	JobTimeout time.Duration
	// Histograms embeds telemetry distributions (coalescing run
	// length, walk depth/cycles, contiguity run length, TLB entry
	// lifetime) and simulated-time phase spans into each job's metrics
	// record. Everything embedded is a pure function of the job's
	// workload — byte-identical at every Parallel width.
	Histograms bool
	// Events, when non-nil, collects each job's structured event trace
	// (TLB hits/misses, coalesces, evictions, walks, THP, compaction,
	// fault injections) for Chrome trace-event export. Tracing is
	// bounded (ring buffer) and deterministically sampled; it never
	// affects simulation results.
	Events *telemetry.TraceSet
	// Progress, when non-nil, receives live per-job phase updates and
	// completion lines (the CLI's opt-in -progress stderr reporter).
	// Progress output is wall-clock-ordered and never golden-diffed.
	Progress *telemetry.Reporter
	// Ctx, when non-nil, cancels the run: jobs not yet dispatched are
	// skipped with canceled-failure records, and in-flight jobs abort
	// at their next cancellation checkpoint (every ctxCheckEvery
	// references and at every phase boundary). Cancellation is a
	// wall-clock event — like timeouts, it never appears in
	// deterministic runs — and is what lets SIGINT drain a batch run
	// cleanly and lets the serving daemon cancel one job without
	// touching its siblings.
	Ctx context.Context
	// attempt is the retry attempt this Options copy drives, folded
	// into the fault plane's seed by mapJobs so attempt N+1 draws a
	// fresh (but deterministic) fault sequence.
	attempt int
}

// telemetryOn reports whether jobs should wire telemetry sinks into
// the TLB hierarchies (histograms requested or event tracing
// attached). Phase spans are always recorded — they cost a handful of
// operations per job — but are only embedded in records under
// Histograms.
func (o Options) telemetryOn() bool {
	return o.Histograms || o.Events != nil
}

// jobLabel is the canonical display name of one scheduler job, shared
// by timing sidecars, progress lines, and trace exports.
func jobLabel(kind, bench, setup string) string {
	return kind + "/" + bench + "/" + setup
}

// pool returns the scheduler the drivers fan jobs out on, wired to the
// metrics collector's per-job timing hook when one is attached.
func (o Options) pool() *sched.Pool {
	p := sched.New(o.Parallel)
	if o.Metrics != nil {
		p.SetObserver(o.Metrics.ObserveJob)
	}
	if o.JobTimeout > 0 {
		p.SetJobTimeout(o.JobTimeout)
	}
	if o.Ctx != nil {
		p.SetContext(o.Ctx)
	}
	return p
}

// ctxCheckEvery is how many references a simulation loop runs between
// cancellation checks: frequent enough that DELETE/SIGINT feels
// immediate, rare enough to stay invisible in the hot path.
const ctxCheckEvery = 4096

// canceled reports the run context's cancellation error, or nil. It
// is cheap enough to call at phase boundaries unconditionally; inner
// loops gate it on the reference counter.
func (o Options) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// plane builds the job's fault-injection plane (nil when injection is
// disabled). The seed folds in the attempt number so a retried job
// sees a different — but deterministic — fault sequence.
func (o Options) plane(bench, setupName string) *fault.Plane {
	if !o.Faults.Enabled() {
		return nil
	}
	return fault.NewPlane(o.Faults, seedFor(o.Seed, bench, setupName, "fault-plane", strconv.Itoa(o.attempt)))
}

// Snapshot returns the deterministic options snapshot embedded in
// metrics reports. Parallel is deliberately dropped: reports must be
// byte-identical at every worker count.
func (o Options) Snapshot() metrics.Options {
	return metrics.Options{
		Frames:      o.Frames,
		Scale:       o.Scale,
		ColdScale:   o.ColdScale,
		ChurnOps:    o.ChurnOps,
		Warmup:      o.Warmup,
		Refs:        o.Refs,
		Seed:        o.Seed,
		MidRunChurn: o.MidRunChurn,
		FaultSpec:   o.Faults.String(),
		Histograms:  o.Histograms,
	}
}

// DefaultOptions sizes a full experiment run: a 1 GB machine with
// footprints scaled so that the biggest benchmarks occupy the same
// fraction of memory as on the paper's 3 GB testbed (Mcf's 1.7 GB maps
// to ~53%), and two million measured references per benchmark.
func DefaultOptions() Options {
	return Options{
		Frames:      1 << 18,
		Scale:       1.0,
		ColdScale:   3.4,
		ChurnOps:    1200,
		Warmup:      200_000,
		Refs:        2_000_000,
		Seed:        0xC017,
		MidRunChurn: true,
	}
}

// QuickOptions sizes a fast smoke run for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Frames:    1 << 15,
		Scale:     0.05,
		ColdScale: 1.0,
		ChurnOps:  150,
		Warmup:    5_000,
		Refs:      60_000,
		Seed:      0xC017,
	}
}

// GoldenOptions sizes the checked-in golden-run subset (TestGoldens):
// QuickOptions at a further reduced trace length, small enough to run
// in CI on every merge. The same configuration is reachable from the
// CLI as `experiments -quick -refs 20000` (the -refs override derives
// warmup as refs/10), which is how `-out` output is compared against
// the goldens.
func GoldenOptions() Options {
	o := QuickOptions()
	o.Refs = 20_000
	o.Warmup = 2_000
	return o
}

// Variant names one TLB configuration under test.
type Variant struct {
	Name   string
	Config core.Config
}

// Policies is the table of named TLB policies: every name a front end
// accepts (the colt package's Policy, replay's -policies), bound to its
// configuration, in display order. Its first four entries are the
// standard variants of Figures 18 and 21.
var Policies = []Variant{
	{Name: "baseline", Config: core.BaselineConfig()},
	{Name: "colt-sa", Config: core.CoLTSAConfig(core.DefaultCoLTShift)},
	{Name: "colt-fa", Config: core.CoLTFAConfig()},
	{Name: "colt-all", Config: core.CoLTAllConfig()},
	{Name: "seq-prefetch", Config: core.SeqPrefetchConfig()},
}

// PolicyNames lists the names of Policies, in display order.
func PolicyNames() []string {
	names := make([]string, len(Policies))
	for i, v := range Policies {
		names[i] = v.Name
	}
	return names
}

// PolicyVariant looks a policy up in Policies by its exact name; an
// unknown name's error lists every name.
func PolicyVariant(name string) (Variant, error) {
	for _, v := range Policies {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("unknown policy %q (valid policies: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// StandardVariants returns the four configurations of Figures 18/21.
func StandardVariants() []Variant {
	return append([]Variant(nil), Policies[:4]...)
}

// VariantResult is one TLB configuration's measurements.
type VariantResult struct {
	Name string
	// Policy is the variant's core.Policy name, recorded for the
	// metrics layer.
	Policy string
	TLB    core.Stats
	// Levels snapshots the per-structure (L1/L2/superpage) counters.
	Levels core.LevelStats
	Run    perf.Run
	// Prefetch is populated for PolicySeqPrefetch variants.
	Prefetch core.PrefetchStats
	// SubblockRejectedPct is populated for PolicyPartialSubblock
	// variants: the share of L2 fills blocked from sharing by physical
	// misalignment.
	SubblockRejectedPct float64
	// Hists carries this variant's telemetry distributions (coalescing
	// run length, walk cycles, TLB entry lifetime) when
	// Options.Histograms is set.
	Hists *metrics.VariantHists
}

// MPMI returns (L1, L2) misses per million instructions.
func (v VariantResult) MPMI() (l1, l2 float64) {
	return perf.MPMI(v.TLB.L1Misses, v.Run.Instructions),
		perf.MPMI(v.TLB.L2Misses, v.Run.Instructions)
}

// BenchResult is one benchmark × system-setup run.
type BenchResult struct {
	Bench        string
	Setup        SystemSetup
	Contig       contig.Result
	Instructions uint64
	Variants     []VariantResult
	// Spans are the job's simulated-time phase spans (build, warmup,
	// simulate) in reference-index units, populated when
	// Options.Histograms is set so they flow into the metrics record.
	Spans []telemetry.Span
	// Hists carries the job-level telemetry distributions (contiguity
	// run length, page-walk depth) when Options.Histograms is set.
	Hists *metrics.RecordHists
}

// Variant returns the named variant's result.
func (b *BenchResult) Variant(name string) (VariantResult, bool) {
	for _, v := range b.Variants {
		if v.Name == name {
			return v, true
		}
	}
	return VariantResult{}, false
}

// levelMetrics converts one TLB structure's counters to the metrics
// schema, deriving the zero-guarded rates.
func levelMetrics(s core.TLBStats, merges uint64) metrics.LevelStats {
	return metrics.LevelStats{
		Lookups:             s.Lookups,
		Hits:                s.Hits,
		Misses:              s.Misses,
		Fills:               s.Fills,
		CoalescedIn:         s.CoalescedIn,
		Evictions:           s.Evictions,
		Merges:              merges,
		HitRate:             s.HitRate(),
		TranslationsPerFill: metrics.Ratio(float64(s.Fills+s.CoalescedIn), float64(s.Fills)),
	}
}

// MetricsRecord converts the result to the machine-readable record the
// experiment drivers emit. Speedups are computed against the result's
// first variant (the baseline by convention); seed is the job's derived
// master seed.
func (b *BenchResult) MetricsRecord(seed uint64) metrics.Record {
	rec := metrics.Record{
		Kind:         metrics.KindBench,
		Bench:        b.Bench,
		Setup:        b.Setup.Name,
		Seed:         seed,
		Instructions: b.Instructions,
		Spans:        b.Spans,
		Hists:        b.Hists,
	}
	model := perf.Default()
	var baseRun perf.Run
	for i, v := range b.Variants {
		l1m, l2m := v.MPMI()
		mv := metrics.Variant{
			Name:           v.Name,
			Policy:         v.Policy,
			Accesses:       v.TLB.Accesses,
			L1Misses:       v.TLB.L1Misses,
			L2Misses:       v.TLB.L2Misses,
			Walks:          v.TLB.Walks,
			Faults:         v.TLB.Faults,
			WalkCycles:     v.TLB.WalkCycles,
			CoalescedFills: v.TLB.CoalescedFills,
			L1:             levelMetrics(v.Levels.L1, 0),
			L2:             levelMetrics(v.Levels.L2, 0),
			Sup:            levelMetrics(v.Levels.Sup, v.Levels.SupMerges),
			L1MPMI:         l1m,
			L2MPMI:         l2m,
			L1MissRate:     v.TLB.L1MissRate(),
			L2MissRate:     v.TLB.L2MissRate(),
			MemStallCycles: v.Run.MemStallCycles,
			ModelCycles:    model.Cycles(v.Run),

			SubblockRejectedPct: v.SubblockRejectedPct,
		}
		mv.Hists = v.Hists
		if i == 0 {
			baseRun = v.Run
		} else {
			mv.SpeedupPct = model.Improvement(baseRun, v.Run)
		}
		rec.Variants = append(rec.Variants, mv)
	}
	return rec
}

// contigRecord converts one page-table scan to a metrics record.
func contigRecord(bench string, setup SystemSetup, seed uint64, res contig.Result) metrics.Record {
	return metrics.Record{
		Kind:  metrics.KindContig,
		Bench: bench,
		Setup: setup.Name,
		Seed:  seed,
		Contig: &metrics.Contiguity{
			PageAvg:       res.AverageContiguity(),
			RunAvg:        res.RunWeightedAverage(),
			SuperPages:    res.SuperPages,
			NonSuperPages: res.NonSuperPages,
			MaxRun:        res.MaxRun,
			FracOver512:   res.FractionAtLeast(513),
		},
	}
}

// simulator bundles one TLB variant's private state: its TLB hierarchy,
// walker (with MMU cache), and cache hierarchy. The hierarchy is
// attached to the job's front, which holds each of its LLC sets until
// a walk forks them.
type simulator struct {
	name     string
	hier     *core.Hierarchy
	walker   *mmu.Walker
	caches   *cache.Hierarchy
	memStall uint64
	pid      int
	// tel is this variant's telemetry sink (nil when telemetry is
	// off): event emission plus per-variant histograms.
	tel *telemetry.Sink
}

// Shootdown implements vm.ShootdownHandler: OS events (unmap, migrate,
// THP split) flush this variant's TLBs and walk cache.
func (s *simulator) Shootdown(pid int, vpn arch.VPN) {
	if pid != s.pid {
		return
	}
	s.hier.Invalidate(vpn)
	s.walker.Flush()
}

const l1HitLatency = 4 // matches cache.DefaultHierarchy's L1

func seedFor(base uint64, parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return base ^ h.Sum64()
}

// scaledSpec applies the run options' footprint scaling.
func scaledSpec(spec workload.Spec, opts Options) workload.Spec {
	spec = spec.Scale(opts.Scale)
	if opts.ColdScale > 0 {
		spec = spec.ScaleCold(opts.ColdScale)
	}
	return spec
}

// settlePasses caps the compaction passes that let kcompactd catch up
// after the churn phase (idle time on a real machine between the
// fragmenting load and the benchmark); CompactionLow systems skip
// settling. Each pass is budget-bounded and costs about one sweep of
// memory (see mm's compact). Settling stops early at a fixpoint: a pass
// that leaves Migrated and MigrateFails unchanged never tried to migrate
// a page, so it changed no frame and drew nothing from the fault plane,
// and every later pass would repeat it exactly.
const settlePasses = 20

// steadyStateSlots of background activity run between building a
// workload and scanning its page table.
const steadyStateSlots = 512

// buildSystem boots and fragments a system per the setup, returning it
// plus the master RNG for the benchmark and the job's fault plane
// (nil when injection is disabled). Every random consumer draws
// from a NAMED stream of the master (churn, memhog, workload, …), and
// the master's seed is itself a pure function of
// (opts.Seed, benchmark, setup): no draw anywhere depends on which
// other experiments ran before this one, which is what lets the
// scheduler run jobs in any order — or in parallel — and still produce
// byte-identical tables. The fault plane's hooks are wired before the
// churn phase, so injection covers system build as well as the run.
// A non-nil tracer is attached to the OS subsystems (THP, compaction,
// fault plane) so their structured events land in the job's trace. A
// failed build releases its system.
func buildSystem(setup SystemSetup, opts Options, benchName string, tracer *telemetry.Tracer) (*vm.System, *rng.RNG, *fault.Plane, error) {
	sys := vm.NewSystem(vm.Config{Frames: opts.Frames, THP: setup.THP, Compaction: setup.Compaction})
	sys.THP.SetTracer(tracer)
	sys.Compactor.SetTracer(tracer)
	plane := opts.plane(benchName, setup.Name)
	if plane != nil {
		sys.Buddy.SetAllocFaultHook(func(int) error { return plane.Fail(fault.SiteBuddyAlloc) })
		sys.Compactor.SetMigrateFaultHook(func() error { return plane.Fail(fault.SiteCompactMigrate) })
		sys.THP.SetHugeFaultHook(func() error { return plane.Fail(fault.SiteTHPAlloc) })
	}
	plane.SetTracer(tracer)
	master := rng.New(seedFor(opts.Seed, benchName, setup.Name))
	if opts.ChurnOps > 0 {
		if _, err := vm.BackgroundChurn(sys, opts.ChurnOps, master.Stream("churn")); err != nil {
			sys.Release()
			return nil, nil, nil, fmt.Errorf("background churn: %w", err)
		}
	}
	if setup.Compaction == mm.CompactionNormal {
		for i := 0; i < settlePasses; i++ {
			before := sys.Compactor.Stats()
			sys.Compactor.Compact(-1)
			after := sys.Compactor.Stats()
			if after.Migrated == before.Migrated && after.MigrateFails == before.MigrateFails {
				break
			}
		}
	}
	if _, err := vm.StartMemhog(sys, setup.MemhogPct, master.Stream("memhog")); err != nil {
		sys.Release()
		return nil, nil, nil, fmt.Errorf("memhog: %w", err)
	}
	if err := auditSystem(opts, "after build", sys); err != nil {
		sys.Release()
		return nil, nil, nil, err
	}
	return sys, master, plane, nil
}

// auditSystem runs the OS-level invariant auditors (buddy free lists,
// frame↔page-table ownership) at a checkpoint when CheckInvariants is
// on. Violations come back as one structured error naming the
// checkpoint, never as a panic.
func auditSystem(opts Options, where string, sys *vm.System) error {
	if !opts.CheckInvariants {
		return nil
	}
	audits := [][]invariant.Violation{
		invariant.AuditBuddy(sys.Buddy),
		invariant.AuditFrameOwners(sys),
	}
	for _, proc := range sys.Processes() {
		audits = append(audits, invariant.AuditPageTable(proc.PID, proc.Table))
	}
	if err := invariant.Check(audits...); err != nil {
		return fmt.Errorf("invariant check %s: %w", where, err)
	}
	return nil
}

// RunContiguity performs the paper's characterization for one
// benchmark: build the system and the benchmark's memory, then scan its
// page table (Figures 7-17). The system is released on return.
func RunContiguity(spec workload.Spec, setup SystemSetup, opts Options) (contig.Result, error) {
	start := time.Now()
	label := jobLabel(metrics.KindContig, spec.Name, setup.Name)
	var spans telemetry.Spans
	if opts.Progress != nil {
		spans.OnPhase(func(phase string) { opts.Progress.Phase(label, phase) })
	}
	var tracer *telemetry.Tracer
	if opts.Events != nil {
		tracer = telemetry.NewTracer(telemetry.DefaultTraceCap)
	}
	spans.Begin("build", 0)
	if err := opts.canceled(); err != nil {
		return contig.Result{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	sys, master, _, err := buildSystem(setup, opts, spec.Name, tracer)
	if err != nil {
		return contig.Result{}, err
	}
	defer sys.Release()
	proc, err := sys.NewProcess()
	if err != nil {
		return contig.Result{}, err
	}
	proc.EnableSwap()
	if _, err := workload.Build(scaledSpec(spec, opts), proc, master.Stream("workload")); err != nil {
		return contig.Result{}, fmt.Errorf("building %s: %w", spec.Name, err)
	}
	// Let the system reach steady state before scanning, as the paper's
	// periodic page-table scans do: under oversubscription this is
	// where swap thrash reshapes residency. Contiguity spans count
	// idle slots as their simulated-time axis.
	spans.Begin("settle", 0)
	if err := opts.canceled(); err != nil {
		return contig.Result{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	sys.Idle(steadyStateSlots)
	if err := auditSystem(opts, "after idle", sys); err != nil {
		return contig.Result{}, err
	}
	spans.Begin("scan", steadyStateSlots)
	res := contig.Scan(proc.Table)
	spans.End(steadyStateSlots)
	if opts.Metrics != nil {
		seed := seedFor(opts.Seed, spec.Name, setup.Name)
		rec := contigRecord(spec.Name, setup, seed, res)
		if opts.Histograms {
			rec.Spans = spans.All()
			rec.Hists = &metrics.RecordHists{ContigRun: res.RunLenHist.Snapshot()}
		}
		opts.Metrics.Add(rec, time.Since(start))
		opts.Metrics.AddSpans(metrics.KindContig, spec.Name, setup.Name, spans.All())
	}
	opts.Events.Add(telemetry.JobTrace{
		Label:   label,
		Threads: []string{"os"},
		Spans:   spans.All(),
		Events:  tracer.Events(),
	})
	return res, nil
}

// benchSim is one benchmark's simulation in flight: the built system
// and workload, plus every variant's private simulator. The
// per-reference work lives in step, a named method rather than a
// closure so the allocation guard (TestSteadyStateAccessZeroAlloc) can
// exercise exactly the code the measured loop runs.
type benchSim struct {
	spec   workload.Spec
	setup  SystemSetup
	sys    *vm.System
	proc   *vm.Process
	w      *workload.Workload
	sims   []*simulator
	contig contig.Result
	// plane is the job's fault-injection plane (nil when disabled);
	// step crosses its trace-corrupt site once per reference.
	plane *fault.Plane

	instructions uint64

	// tracer is the job's event ring (nil unless Options.Events is
	// attached); shared by the OS subsystems and every variant's sink.
	tracer *telemetry.Tracer
	// refClock counts references monotonically across warmup AND the
	// measured run — it is never reset, so TLB entry lifetimes
	// (now - born) can never underflow at the warmup boundary. It is
	// the simulated-time axis for spans, event timestamps, and entry
	// lifetimes.
	refClock uint64
	// walkDepth accumulates radix-walk depth per page-table walk when
	// telemetry is on (reset with the other stats after warmup).
	walkDepth  telemetry.Hist
	histograms bool

	// Hot-loop shape, decided once at construction so the per-reference
	// path never re-derives it:
	//
	//   hasPlane  — a fault plane is attached; step crosses the
	//               trace-corrupt site per reference.
	//   hasTracer — an event ring is attached; step advances its clock
	//               per reference.
	hasPlane  bool
	hasTracer bool

	// front is the shared L1/L2 data-cache pair and the shared LLC.
	// Every variant translates the same reference stream to the same
	// physical addresses (the page table is common; step checks the
	// translations agree), so the L1/L2 state evolution is identical
	// across variants and is simulated once per reference. Every
	// variant's cache hierarchy is attached to it: an LLC set lives in
	// the shared LLC until some variant's walk touches it, and in the
	// variants' private LLCs after. lats receives each variant's
	// per-reference data latency from the front.
	front *cache.Front
	lats  []int
}

// newBenchSim boots the system, fragments it, builds the workload, and
// attaches one simulator per variant (all registered for shootdowns).
// On error the system is released.
func newBenchSim(spec workload.Spec, setup SystemSetup, opts Options, variants []Variant) (*benchSim, *rng.RNG, error) {
	var tracer *telemetry.Tracer
	if opts.Events != nil {
		tracer = telemetry.NewTracer(telemetry.DefaultTraceCap)
	}
	sys, master, plane, err := buildSystem(setup, opts, spec.Name, tracer)
	if err != nil {
		return nil, nil, err
	}
	proc, err := sys.NewProcess()
	if err != nil {
		sys.Release()
		return nil, nil, err
	}
	proc.EnableSwap()
	w, err := workload.Build(scaledSpec(spec, opts), proc, master.Stream("workload"))
	if err != nil {
		sys.Release()
		return nil, nil, fmt.Errorf("building %s: %w", spec.Name, err)
	}
	b := &benchSim{
		spec:       spec,
		setup:      setup,
		sys:        sys,
		proc:       proc,
		w:          w,
		sims:       make([]*simulator, len(variants)),
		contig:     contig.Scan(proc.Table),
		plane:      plane,
		tracer:     tracer,
		histograms: opts.Histograms,
		hasPlane:   plane != nil,
		hasTracer:  tracer != nil,
		front:      cache.NewFront(),
		lats:       make([]int, len(variants)),
	}
	telemetryOn := opts.telemetryOn()
	if telemetryOn {
		proc.Table.SetWalkDepthHist(&b.walkDepth)
	}
	for i, v := range variants {
		caches := cache.DefaultHierarchy()
		b.front.Attach(caches)
		walker := mmu.NewWalker(proc.Table, caches, mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
		b.sims[i] = &simulator{
			name:   v.Name,
			hier:   core.NewHierarchy(v.Config, walker),
			walker: walker,
			caches: caches,
			pid:    proc.PID,
		}
		if telemetryOn {
			// Thread IDs start at 1; tid 0 is the OS row in trace
			// exports.
			b.sims[i].tel = telemetry.NewSink(tracer, uint8(i+1))
			b.sims[i].hier.SetTelemetry(b.sims[i].tel, &b.refClock)
		}
		sys.AddShootdownHandler(b.sims[i])
	}
	return b, master, nil
}

// release hands every variant's cache hierarchy, the shared front and
// the OS model (frame arrays, buddy links, page-table nodes) back to
// their pools, so the next job reuses them; b must not step
// afterwards.
func (b *benchSim) release() {
	b.front.Release()
	for _, s := range b.sims {
		s.caches.Release()
	}
	b.sys.Release()
}

// step executes one reference of the identical stream against every
// variant. This is the simulator's hot path: in steady state (no
// swap-in, no OS churn event) it performs zero heap allocations per
// reference — guarded by testing.AllocsPerRun.
func (b *benchSim) step(ref int) error {
	// Advance simulated time: refClock is cumulative across warmup and
	// the measured run (monotonic — see the field comment), and stamps
	// both the event trace and TLB entry birth times.
	b.refClock++
	if b.hasTracer {
		b.tracer.SetNow(b.refClock)
	}
	// One trace-corrupt crossing per reference: an injected fault means
	// this record of the reference stream could not be decoded, which
	// aborts the job (there is no way to skip a reference and keep the
	// variants' streams aligned). The hasPlane/hasTracer booleans are
	// decided once at construction: disabled planes and tracers cost
	// nothing per reference, not even a nil-object method call.
	if b.hasPlane {
		if err := b.plane.Fail(fault.SiteTraceCorrupt); err != nil {
			return fmt.Errorf("%s: decoding trace record %d: %w", b.spec.Name, ref, err)
		}
	}
	va, write, gap := b.w.Next()
	vpn := va.Page()
	b.instructions += uint64(gap)
	// A touched page may have been swapped out under memory
	// pressure: service the major fault before the TLB probes.
	if _, _, ok := b.proc.Resolve(vpn); !ok {
		swappedIn, err := b.proc.EnsureResident(vpn)
		if err != nil {
			return err
		}
		if !swappedIn {
			return fmt.Errorf("%s: reference to unmapped vpn %d", b.spec.Name, vpn)
		}
	}
	// Every variant probes (and walks) before the front sees the
	// reference's data access, as each variant's translation precedes
	// its own data access; the front never sees walks, so running it
	// once after all the probes changes no variant's result.
	var pfn0 arch.PFN
	for vi, s := range b.sims {
		res := s.hier.Access(vpn)
		if res.Fault {
			return fmt.Errorf("%s/%s: fault at vpn %d", b.spec.Name, s.name, vpn)
		}
		// The first variant's translation drives the shared front;
		// every other variant must translate identically (they cache
		// the same page table).
		if vi == 0 {
			pfn0 = res.PFN
		} else if res.PFN != pfn0 {
			return fmt.Errorf("%s/%s: translation diverges at vpn %d", b.spec.Name, s.name, vpn)
		}
	}
	b.front.Access(pfn0.Addr()+arch.PAddr(va.Offset()), write, b.lats)
	for i, s := range b.sims {
		if lat := b.lats[i]; lat > l1HitLatency {
			s.memStall += uint64(lat - l1HitLatency)
		}
	}
	// Oracle check (sampled): every variant must agree with the
	// page table.
	if ref%1024 == 0 {
		for _, s := range b.sims {
			if err := b.oracleCheck(s, vpn); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleCheck is the sampled agreement check between one variant's L2
// TLB and the page table; Resolve and LookupRun are reads, so the check
// cannot perturb simulation state.
func (b *benchSim) oracleCheck(s *simulator, vpn arch.VPN) error {
	want, _, ok := b.proc.Resolve(vpn)
	if !ok {
		return fmt.Errorf("%s: vpn %d vanished", b.spec.Name, vpn)
	}
	if got, hit := s.hier.L2().LookupRun(vpn); hit && got.Translate(vpn) != want {
		return fmt.Errorf("%s/%s: stale L2 entry for vpn %d", b.spec.Name, s.name, vpn)
	}
	return nil
}

// runRefs steps count references, checking for cancellation every
// ctxCheckEvery references and running churn (which may be nil when
// churnEvery is 0) after every churnEvery-th one: churn mutates VM
// state between references, so it must land at a fixed stream position.
func (b *benchSim) runRefs(opts Options, count, churnEvery int, churn func(ref int) error) error {
	for i := 0; i < count; i++ {
		if i%ctxCheckEvery == 0 {
			if err := opts.canceled(); err != nil {
				return fmt.Errorf("%s: %w", b.spec.Name, err)
			}
		}
		if err := b.step(i); err != nil {
			return err
		}
		if churnEvery > 0 && i%churnEvery == churnEvery-1 {
			if err := churn(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// audit runs the full invariant checkpoint for this job when enabled:
// the OS-level auditors plus, per variant, TLB↔pagetable coherence and
// the CoLT coalescing invariant.
func (b *benchSim) audit(opts Options, where string) error {
	if !opts.CheckInvariants {
		return nil
	}
	if err := auditSystem(opts, where, b.sys); err != nil {
		return err
	}
	for _, s := range b.sims {
		err := invariant.Check(
			invariant.AuditTLBCoherence(s.name, s.hier, b.proc.Table),
			invariant.AuditCoalescing(s.name, s.hier, b.proc.Table))
		if err != nil {
			return fmt.Errorf("invariant check %s (%s): %w", where, s.name, err)
		}
	}
	return nil
}

// resetStats zeroes measurement state after warmup. Telemetry
// histograms reset with the counters so embedded distributions cover
// the measured run only; refClock deliberately keeps running so entry
// lifetimes stay monotonic across the boundary.
func (b *benchSim) resetStats() {
	b.instructions = 0
	b.walkDepth = telemetry.Hist{}
	for _, s := range b.sims {
		s.hier.ResetStats()
		s.memStall = 0
		s.tel.ResetHists()
	}
}

// result snapshots every variant's counters into a BenchResult.
func (b *benchSim) result() *BenchResult {
	res := &BenchResult{
		Bench:        b.spec.Name,
		Setup:        b.setup,
		Contig:       b.contig,
		Instructions: b.instructions,
	}
	if b.histograms {
		res.Hists = &metrics.RecordHists{
			ContigRun: b.contig.RunLenHist.Snapshot(),
			WalkDepth: b.walkDepth.Snapshot(),
		}
	}
	for _, s := range b.sims {
		st := s.hier.Stats()
		var rejectedPct float64
		if _, sb2 := s.hier.Subblock(); sb2 != nil && sb2.Stats().Fills > 0 {
			rejectedPct = 100 * float64(sb2.Rejected()) / float64(sb2.Stats().Fills)
		}
		vr := VariantResult{
			Name:                s.name,
			Policy:              s.hier.Config().Policy.String(),
			TLB:                 st,
			Levels:              s.hier.LevelStats(),
			Prefetch:            s.hier.PrefetchStats(),
			SubblockRejectedPct: rejectedPct,
			Run: perf.Run{
				Instructions:   b.instructions,
				MemStallCycles: s.memStall,
				WalkCycles:     st.WalkCycles,
			},
		}
		if b.histograms && s.tel != nil {
			vr.Hists = &metrics.VariantHists{
				CoalesceLen: s.tel.CoalesceLen.Snapshot(),
				WalkCycles:  s.tel.WalkCycles.Snapshot(),
				EntryLife:   s.tel.EntryLife.Snapshot(),
			}
		}
		res.Variants = append(res.Variants, vr)
	}
	return res
}

// RunBenchmark runs one benchmark under one system setup, simulating
// every TLB variant over the identical reference stream (the paper's
// trace-driven methodology, §5.2.1). All variants observe the same OS
// events; each has private TLBs, MMU caches, and data caches. The
// variants deliberately share one goroutine: they must observe the
// same reference stream and shootdown sequence in lockstep, so
// parallelism lives one level up, across (benchmark × setup) jobs.
func RunBenchmark(spec workload.Spec, setup SystemSetup, opts Options, variants []Variant) (*BenchResult, error) {
	start := time.Now()
	label := jobLabel(metrics.KindBench, spec.Name, setup.Name)
	var spans telemetry.Spans
	if opts.Progress != nil {
		spans.OnPhase(func(phase string) { opts.Progress.Phase(label, phase) })
	}
	spans.Begin("build", 0)
	if err := opts.canceled(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	b, master, err := newBenchSim(spec, setup, opts, variants)
	if err != nil {
		return nil, err
	}
	defer b.release()
	churnRNG := master.Stream("midrun-churn")
	var churnProc *vm.Process
	if opts.MidRunChurn {
		churnProc, err = b.sys.NewProcess()
		if err != nil {
			return nil, err
		}
	}

	spans.Begin("warmup", b.refClock)
	if err := b.runRefs(opts, opts.Warmup, 0, nil); err != nil {
		return nil, err
	}
	if err := b.audit(opts, "after warmup"); err != nil {
		return nil, err
	}
	b.resetStats()
	spans.Begin("simulate", b.refClock)

	churnEvery := 0
	if opts.MidRunChurn && opts.Refs >= 8 {
		churnEvery = opts.Refs / 8
	}
	churn := func(i int) error {
		// OS activity mid-run: small allocations and frees that can
		// trigger compaction, THP splits, and TLB shootdowns.
		if reg, err := churnProc.Malloc(churnRNG.IntRange(1, 32)); err == nil && churnRNG.Bool(0.5) {
			if err := churnProc.Free(reg); err != nil {
				return err
			}
		}
		// The churn burst is exactly where migrations, splits, and
		// shootdowns concentrate — audit right after it.
		return b.audit(opts, fmt.Sprintf("after churn burst %d", i/churnEvery))
	}
	if err := b.runRefs(opts, opts.Refs, churnEvery, churn); err != nil {
		return nil, err
	}
	if err := b.audit(opts, "at run end"); err != nil {
		return nil, err
	}
	spans.End(b.refClock)
	res := b.result()
	if opts.Histograms {
		res.Spans = spans.All()
	}
	if opts.Metrics != nil {
		seed := seedFor(opts.Seed, spec.Name, setup.Name)
		opts.Metrics.Add(res.MetricsRecord(seed), time.Since(start))
		opts.Metrics.AddSpans(metrics.KindBench, spec.Name, setup.Name, spans.All())
	}
	if opts.Events != nil {
		threads := make([]string, 0, len(b.sims)+1)
		threads = append(threads, "os")
		for _, s := range b.sims {
			threads = append(threads, s.name)
		}
		opts.Events.Add(telemetry.JobTrace{
			Label:   label,
			Threads: threads,
			Spans:   spans.All(),
			Events:  b.tracer.Events(),
		})
	}
	return res, nil
}

// jobMeta labels one scheduler job for failure reporting: the driver
// kind plus the benchmark and setup the job simulates.
type jobMeta struct {
	kind  string
	bench string
	setup string
}

// mapJobs fans items across the scheduler with this package's
// robustness contract:
//
//   - a panic in one job becomes that job's *sched.PanicError;
//   - a job that failed on an injected fault is re-attempted up to
//     opts.Retries times, each attempt reseeding the fault plane with
//     its attempt number (deterministic retry trajectory);
//   - every terminal failure is recorded in the metrics collector's
//     Failures section (kind/bench/setup/attempts/error);
//   - ok[i] reports whether results[i] is valid, so drivers render
//     the surviving jobs.
//
// With fault injection disabled a failure is a real bug, and mapJobs
// keeps the strict pre-fault-plane contract: the first error (by job
// index) is returned and no partial results are. Under injection it
// degrades gracefully, erroring only when no job survived.
func mapJobs[S, T any](opts Options, items []S, meta func(S) jobMeta, run func(item S, opts Options) (T, error)) (results []T, ok []bool, err error) {
	attempts := make([]int, len(items))
	label := func(i int) string {
		m := meta(items[i])
		return jobLabel(m.kind, m.bench, m.setup)
	}
	pool := opts.pool().SetLabeler(label)
	opts.Progress.AddJobs(len(items))
	results, errs := sched.MapPartial(pool, len(items), func(i int) (T, error) {
		var out T
		err := sched.Retry(1+opts.Retries, fault.IsInjected, func(attempt int) error {
			attempts[i] = attempt + 1
			o := opts
			o.attempt = attempt
			var runErr error
			out, runErr = run(items[i], o)
			return runErr
		})
		opts.Progress.Done(label(i), err == nil)
		return out, err
	})
	ok = make([]bool, len(items))
	var firstErr error
	failed, canceled := 0, 0
	for i, jobErr := range errs {
		if jobErr == nil {
			ok[i] = true
			continue
		}
		failed++
		jobCanceled := errors.Is(jobErr, context.Canceled) || errors.Is(jobErr, context.DeadlineExceeded)
		if jobCanceled {
			canceled++
		}
		if firstErr == nil {
			firstErr = jobErr
		}
		if opts.Metrics != nil {
			var te *sched.TimeoutError
			timedOut := errors.As(jobErr, &te)
			m := meta(items[i])
			f := metrics.Failure{
				Kind:     m.kind,
				Bench:    m.bench,
				Setup:    m.setup,
				Error:    jobErr.Error(),
				Injected: fault.IsInjected(jobErr),
				TimedOut: timedOut,
				Canceled: jobCanceled,
			}
			// A timed-out job's goroutine is still running and still
			// owns attempts[i]; leave Attempts zero rather than race.
			if !timedOut {
				f.Attempts = attempts[i]
			}
			opts.Metrics.AddFailure(f)
		}
	}
	if failed == 0 {
		return results, ok, nil
	}
	// Cancellation degrades like injection: an interrupted run renders
	// its completed jobs and records the rest as canceled failures,
	// so a SIGINT'd batch still writes a coherent (partial) report
	// instead of dying mid-write. Real errors with faults disabled
	// keep the strict first-error contract.
	if (!opts.Faults.Enabled() && canceled == 0) || failed == len(items) {
		return nil, nil, firstErr
	}
	return results, ok, nil
}

// surviving filters a mapJobs result down to its successful entries,
// preserving input order.
func surviving[T any](results []T, ok []bool) []T {
	out := make([]T, 0, len(results))
	for i := range results {
		if ok[i] {
			out = append(out, results[i])
		}
	}
	return out
}
