package main

import (
	"encoding/json"
	"fmt"
	"time"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/contig"
	"colt/internal/core"
	"colt/internal/experiments"
	"colt/internal/metrics"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/rng"
	"colt/internal/vm"
	"colt/internal/workload"
)

// The replay rebuilds every bench job of one pass through the layers'
// public calls, in the order experiments.RunBenchmark makes them, with
// a span around each call. It must reproduce the job exactly: the
// replayed TLB counters are checked against the job's report record,
// so a replay that drifted from the engine fails loudly instead of
// attributing time to work the engine no longer does.

// Engine constants the replay mirrors (unexported in
// internal/experiments; the counter check catches any drift).
const (
	settlePasses = 20 // experiments.settlePasses
	l1HitLatency = 4  // experiments.l1HitLatency
)

// replayBatch is how many per-reference calls one span covers: timing
// each ~100 ns call on its own would swamp it.
const replayBatch = 4096

// layerSpans names the spans that sit directly around a call into a
// simulator layer; their durations sum to the replay's accounted time.
var layerSpans = map[string]bool{
	"vm.new_system": true, "mm.churn": true, "mm.settle": true, "vm.memhog": true,
	"vm.new_process": true, "workload.build": true, "contig.scan": true,
	"core.new_hierarchy": true, "workload.next": true, "cache.front": true,
	"core.access": true, "vm.swap_in": true,
}

// replayCounts accumulates the replay's layer counters over every job.
type replayCounts struct {
	Jobs                         int
	Refs                         uint64 // references decoded, warmup included
	LLCEvents                    uint64 // LLC-bound requests the shared front recorded
	PWCHits, PWCMisses           uint64
	BuddyAllocs, CompactMigrated uint64
	THPPromoted                  uint64
	L1Misses, L2Misses, Walks    uint64 // measured run, all variants
	CoalescedFills               uint64
	RealWall                     time.Duration // the engine's wall time for the replayed jobs
	MismatchedJobs               int
	FirstMismatch                string

	variantConfigs map[string]core.Config
	setups         map[string]experiments.SystemSetup
}

func newReplayCounts() *replayCounts {
	c := &replayCounts{variantConfigs: variantConfigs(), setups: make(map[string]experiments.SystemSetup)}
	for _, s := range experiments.Setups() {
		c.setups[s.Name] = s
	}
	return c
}

// variantConfigs maps every TLB variant name the benchmark's
// experiments report to its configuration (Table 1, Figure 18 and
// Figure 20's variant sets).
func variantConfigs() map[string]core.Config {
	m := map[string]core.Config{"real-system": core.RealSystemBaselineConfig()}
	for _, v := range experiments.StandardVariants() {
		m[v.Name] = v.Config
	}
	base8 := core.BaselineConfig()
	base8.L2Sets, base8.L2Ways = 16, 8
	sa8 := core.CoLTSAConfig(core.DefaultCoLTShift)
	sa8.L2Sets, sa8.L2Ways = 16, 8
	m["base-4way"] = core.BaselineConfig()
	m["sa-4way"] = core.CoLTSAConfig(core.DefaultCoLTShift)
	m["base-8way"] = base8
	m["sa-8way"] = sa8
	return m
}

// passReport is one experiment's report bytes from a pass.
type passReport struct {
	Name  string
	Bytes []byte
}

// replayPass replays every job of the given reports, returning the
// counters; a job whose counters differ from its record is counted in
// MismatchedJobs. Right before each replay the engine runs the same
// job alone, so the accounted share compares two serial runs taken
// moments apart rather than runs minutes apart on a drifting host.
func replayPass(tr *tracer, reports []passReport) (*replayCounts, error) {
	c := newReplayCounts()
	for _, pr := range reports {
		var rep metrics.Report
		if err := json.Unmarshal(pr.Bytes, &rep); err != nil {
			return nil, fmt.Errorf("replay: decoding %s report: %w", pr.Name, err)
		}
		if rep.Options.MidRunChurn || rep.Options.FaultSpec != "" {
			return nil, fmt.Errorf("replay: %s uses mid-run churn or fault injection, which the replay does not model", pr.Name)
		}
		for _, rec := range rep.Records {
			if rec.Kind != metrics.KindBench {
				return nil, fmt.Errorf("replay: %s record %s/%s has kind %q", pr.Name, rec.Bench, rec.Setup, rec.Kind)
			}
			j, err := c.resolve(rec)
			if err != nil {
				return nil, fmt.Errorf("replay: %s job %s/%s: %w", pr.Name, rec.Bench, rec.Setup, err)
			}
			wall, err := engineJob(rep.Options, j)
			if err != nil {
				return nil, fmt.Errorf("replay: engine run of %s/%s/%s: %w", pr.Name, rec.Bench, rec.Setup, err)
			}
			if err := c.replayJob(tr, pr.Name, rep.Options, j); err != nil {
				return nil, err
			}
			c.RealWall += wall
		}
	}
	return c, nil
}

// job is one report record resolved to the engine's inputs.
type job struct {
	rec      metrics.Record
	spec     workload.Spec // unscaled, as experiments.RunBenchmark takes it
	setup    experiments.SystemSetup
	variants []experiments.Variant
}

func (c *replayCounts) resolve(rec metrics.Record) (job, error) {
	j := job{rec: rec, variants: make([]experiments.Variant, len(rec.Variants))}
	var ok bool
	if j.setup, ok = c.setups[rec.Setup]; !ok {
		return j, fmt.Errorf("unknown system setup %q", rec.Setup)
	}
	var err error
	if j.spec, err = workload.ByName(rec.Bench); err != nil {
		return j, err
	}
	for i, v := range rec.Variants {
		cfg, ok := c.variantConfigs[v.Name]
		if !ok {
			return j, fmt.Errorf("unknown TLB variant %q", v.Name)
		}
		j.variants[i] = experiments.Variant{Name: v.Name, Config: cfg}
	}
	return j, nil
}

// engineJob runs the job through experiments.RunBenchmark and returns
// its wall time.
func engineJob(o metrics.Options, j job) (time.Duration, error) {
	opts := experiments.Options{Frames: o.Frames, Scale: o.Scale, ColdScale: o.ColdScale,
		ChurnOps: o.ChurnOps, Warmup: o.Warmup, Refs: o.Refs, Seed: o.Seed}
	start := time.Now()
	_, err := experiments.RunBenchmark(j.spec, j.setup, opts, j.variants)
	return time.Since(start), err
}

// replayVariant is one TLB configuration's private state. It is also
// the hierarchy's page walker: before each walk it replays the LLC
// traffic of the references accessed since the previous one, so the
// variant's LLC sees data fills and walker PTE fetches in exactly the
// engine's order while both are timed apart from the TLB probe.
type replayVariant struct {
	name   string
	hier   *core.Hierarchy
	walker *mmu.Walker
	pwc    *mmu.WalkCache
	llc    *cache.Cache
	pid    int
	run    *replayRun

	memStall uint64
	cur      int // index in the batch of the reference being accessed
	next     int // first batch reference whose LLC traffic is not replayed yet

	walkTime, llcTime time.Duration
	walks, llcCalls   int
}

// Walk implements core.Walker.
func (v *replayVariant) Walk(vpn arch.VPN) mmu.WalkInfo {
	t0 := time.Now()
	v.replayLLC(v.cur)
	t1 := time.Now()
	info := v.walker.Walk(vpn)
	v.llcTime += t1.Sub(t0)
	v.walkTime += time.Since(t1)
	v.walks++
	return info
}

// Shootdown implements vm.ShootdownHandler, as the engine's simulator
// does: flush the translation and the MMU walk cache.
func (v *replayVariant) Shootdown(pid int, vpn arch.VPN) {
	if pid != v.pid {
		return
	}
	v.hier.Invalidate(vpn)
	v.walker.Flush()
}

// replayLLC applies the recorded LLC-bound requests of batch
// references [v.next, upTo) to the variant's private LLC and charges
// each reference's memory stall.
func (v *replayVariant) replayLLC(upTo int) {
	r := v.run
	for ; v.next < upTo; v.next++ {
		fr := &r.recs[v.next]
		lat := int(fr.lat)
		if fr.lo != fr.hi {
			events := r.events[fr.lo:fr.hi]
			if fr.demand {
				lat += v.llc.Access(events[0].Addr, events[0].Write)
				events = events[1:]
			}
			for _, e := range events {
				v.llc.Access(e.Addr, e.Write)
			}
			v.llcCalls += int(fr.hi - fr.lo)
		}
		if lat > l1HitLatency {
			v.memStall += uint64(lat - l1HitLatency)
		}
	}
}

// decodedRef is one reference from Workload.Next with its page-table
// translation.
type decodedRef struct {
	va    arch.VAddr
	write bool
	pfn   arch.PFN
}

// frontRec is one reference's outcome in the shared L1/L2 front.
type frontRec struct {
	lat    int32
	lo, hi int32 // its LLC-bound requests in replayRun.events
	demand bool
}

// replayRun drives one job's reference stream.
type replayRun struct {
	tr           *tracer
	trace        string
	proc         *vm.Process
	w            *workload.Workload
	front        *cache.Front
	vars         []*replayVariant
	batch        []decodedRef
	recs         []frontRec
	events       []cache.LLCEvent
	instructions uint64
	counts       *replayCounts
}

func (c *replayCounts) replayJob(tr *tracer, exp string, o metrics.Options, j job) error {
	rec, setup := j.rec, j.setup
	spec := j.spec.Scale(o.Scale)
	if o.ColdScale > 0 {
		spec = spec.ScaleCold(o.ColdScale)
	}
	trace := exp + "/" + rec.Bench + "/" + rec.Setup
	job := tr.begin("replay.job", trace, 0)
	call := func(name string, calls int, f func() error) error {
		sp := tr.begin(name, trace, job.id)
		err := f()
		sp.end(calls)
		return err
	}

	var sys *vm.System
	call("vm.new_system", 1, func() error {
		sys = vm.NewSystem(vm.Config{Frames: o.Frames, THP: setup.THP, Compaction: setup.Compaction})
		return nil
	})
	master := rng.New(rec.Seed)
	if o.ChurnOps > 0 {
		if err := call("mm.churn", 1, func() error {
			_, err := vm.BackgroundChurn(sys, o.ChurnOps, master.Stream("churn"))
			return err
		}); err != nil {
			return fmt.Errorf("replay %s: background churn: %w", trace, err)
		}
	}
	if setup.Compaction == mm.CompactionNormal {
		call("mm.settle", settlePasses, func() error {
			for i := 0; i < settlePasses; i++ {
				sys.Compactor.Compact(-1)
			}
			return nil
		})
	}
	if err := call("vm.memhog", 1, func() error {
		_, err := vm.StartMemhog(sys, setup.MemhogPct, master.Stream("memhog"))
		return err
	}); err != nil {
		return fmt.Errorf("replay %s: memhog: %w", trace, err)
	}
	var proc *vm.Process
	if err := call("vm.new_process", 1, func() error {
		var err error
		if proc, err = sys.NewProcess(); err == nil {
			proc.EnableSwap()
		}
		return err
	}); err != nil {
		return fmt.Errorf("replay %s: %w", trace, err)
	}
	var w *workload.Workload
	if err := call("workload.build", 1, func() error {
		var err error
		w, err = workload.Build(spec, proc, master.Stream("workload"))
		return err
	}); err != nil {
		return fmt.Errorf("replay %s: building workload: %w", trace, err)
	}
	call("contig.scan", 1, func() error { contig.Scan(proc.Table); return nil })

	run := &replayRun{tr: tr, trace: trace, proc: proc, w: w, front: cache.NewFront(),
		batch: make([]decodedRef, replayBatch), recs: make([]frontRec, replayBatch), counts: c}
	if err := call("core.new_hierarchy", len(rec.Variants), func() error {
		for i, jv := range j.variants {
			caches := cache.DefaultHierarchy()
			pwc := mmu.NewWalkCache(mmu.DefaultWalkCacheEntries)
			v := &replayVariant{name: jv.Name, walker: mmu.NewWalker(proc.Table, caches, pwc),
				pwc: pwc, llc: caches.LLC, pid: proc.PID, run: run}
			v.hier = core.NewHierarchy(jv.Config, v)
			if got, want := v.hier.Config().Policy.String(), rec.Variants[i].Policy; got != want {
				return fmt.Errorf("variant %s has policy %s, report says %s", jv.Name, got, want)
			}
			sys.AddShootdownHandler(v)
			run.vars = append(run.vars, v)
		}
		return nil
	}); err != nil {
		return fmt.Errorf("replay %s: %w", trace, err)
	}

	if err := run.refs("replay.warmup", job.id, o.Warmup); err != nil {
		return err
	}
	run.instructions = 0
	for _, v := range run.vars {
		v.hier.ResetStats()
		v.memStall = 0
	}
	if err := run.refs("replay.simulate", job.id, o.Refs); err != nil {
		return err
	}
	job.end(1)

	c.Jobs++
	bs, cs, ts := sys.Buddy.Stats(), sys.Compactor.Stats(), sys.THP.Stats()
	c.BuddyAllocs += bs.Allocs
	c.CompactMigrated += cs.Migrated
	c.THPPromoted += ts.HugeAllocs
	if mismatch := run.check(rec); mismatch != "" {
		c.MismatchedJobs++
		if c.FirstMismatch == "" {
			c.FirstMismatch = trace + ": " + mismatch
		}
	}
	for _, v := range run.vars {
		st := v.hier.Stats()
		c.L1Misses += st.L1Misses
		c.L2Misses += st.L2Misses
		c.Walks += st.Walks
		c.CoalescedFills += st.CoalescedFills
		c.PWCHits += v.pwc.Hits()
		c.PWCMisses += v.pwc.Misses()
	}
	return nil
}

// check compares the replayed counters with the job's report record
// and describes the first difference ("" when they all agree).
func (r *replayRun) check(rec metrics.Record) string {
	if r.instructions != rec.Instructions {
		return fmt.Sprintf("instructions %d, report %d", r.instructions, rec.Instructions)
	}
	for i, v := range r.vars {
		st, want := v.hier.Stats(), rec.Variants[i]
		fields := []struct {
			name      string
			got, want uint64
		}{
			{"accesses", st.Accesses, want.Accesses},
			{"l1_misses", st.L1Misses, want.L1Misses},
			{"l2_misses", st.L2Misses, want.L2Misses},
			{"walks", st.Walks, want.Walks},
			{"faults", st.Faults, want.Faults},
			{"walk_cycles", st.WalkCycles, want.WalkCycles},
			{"coalesced_fills", st.CoalescedFills, want.CoalescedFills},
			{"mem_stall_cycles", v.memStall, want.MemStallCycles},
		}
		for _, f := range fields {
			if f.got != f.want {
				return fmt.Sprintf("variant %s %s %d, report %d", v.name, f.name, f.got, f.want)
			}
		}
	}
	return ""
}

// refs runs count references in batches of at most replayBatch,
// stopping a batch after a reference to a non-resident page so the
// swap-in lands at the same stream position as in the engine.
func (r *replayRun) refs(phaseName string, parent, count int) error {
	phase := r.tr.begin(phaseName, r.trace, parent)
	for i := 0; i < count; {
		n, resident := 0, true
		sp := r.tr.begin("workload.next", r.trace, phase.id)
		for n < replayBatch && i+n < count {
			va, write, gap := r.w.Next()
			r.instructions += uint64(gap)
			pfn, _, ok := r.proc.Resolve(va.Page())
			r.batch[n] = decodedRef{va: va, write: write, pfn: pfn}
			n++
			if !ok {
				resident = false
				break
			}
		}
		sp.end(n)
		r.counts.Refs += uint64(n)
		prefix := n
		if !resident {
			prefix = n - 1
		}
		if err := r.step(r.batch[:prefix], phase.id); err != nil {
			return err
		}
		if !resident {
			last := &r.batch[n-1]
			vpn := last.va.Page()
			sp := r.tr.begin("vm.swap_in", r.trace, phase.id)
			swapped, err := r.proc.EnsureResident(vpn)
			sp.end(1)
			if err != nil {
				return fmt.Errorf("replay %s: swap-in: %w", r.trace, err)
			}
			pfn, _, ok := r.proc.Resolve(vpn)
			if !swapped || !ok {
				return fmt.Errorf("replay %s: reference to unmapped vpn %d", r.trace, vpn)
			}
			last.pfn = pfn
			if err := r.step(r.batch[n-1:n], phase.id); err != nil {
				return err
			}
		}
		i += n
	}
	phase.end(count)
	return nil
}

// step runs resident references through the shared L1/L2 front, then
// through every variant's TLB hierarchy and private LLC.
func (r *replayRun) step(refs []decodedRef, parent int) error {
	if len(refs) == 0 {
		return nil
	}
	sp := r.tr.begin("cache.front", r.trace, parent)
	r.events = r.events[:0]
	for k, d := range refs {
		paddr := d.pfn.Addr() + arch.PAddr(d.va.Offset())
		lat, events, demand := r.front.DataAccess(paddr, d.write)
		r.recs[k] = frontRec{lat: int32(lat), lo: int32(len(r.events)), demand: demand}
		r.events = append(r.events, events...)
		r.recs[k].hi = int32(len(r.events))
	}
	sp.end(len(refs))
	r.counts.LLCEvents += uint64(len(r.events))

	for _, v := range r.vars {
		v.next, v.walkTime, v.llcTime, v.walks, v.llcCalls = 0, 0, 0, 0, 0
		sp := r.tr.begin("core.access", r.trace, parent)
		for k, d := range refs {
			v.cur = k
			res := v.hier.Access(d.va.Page())
			if res.Fault {
				return fmt.Errorf("replay %s/%s: fault at vpn %d", r.trace, v.name, d.va.Page())
			}
			if res.PFN != d.pfn {
				return fmt.Errorf("replay %s/%s: translation of vpn %d diverges from the page table", r.trace, v.name, d.va.Page())
			}
		}
		t := time.Now()
		v.replayLLC(len(refs))
		v.llcTime += time.Since(t)
		// The walks and LLC replays inside this span are summed and laid
		// end to end from its start: their total is exact, their
		// placement within the span is not.
		r.tr.record("mmu.walk", r.trace, sp.id, sp.start, sp.start+v.walkTime, v.walks)
		r.tr.record("cache.llc", r.trace, sp.id, sp.start+v.walkTime, sp.start+v.walkTime+v.llcTime, v.llcCalls)
		sp.end(len(refs))
	}
	return nil
}
