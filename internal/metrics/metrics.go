// Package metrics is the simulator's machine-readable observability
// layer. Every experiment driver emits one Record per
// (benchmark × setup) job into a Collector; a Report serializes the
// collected records as stable, key-sorted JSON so downstream tooling
// (CI, regression diffing, bench trajectories) can consume results
// instead of scraping text tables.
//
// Determinism contract: the stable JSON is a pure function of the run's
// options and seed — records are sorted by (kind, bench, setup) before
// serialization, worker count is deliberately excluded from the options
// snapshot, and wall-clock timing lives in a separate, non-golden
// timing report. Emitted JSON never contains Inf or NaN: ratio
// computations go through Ratio, and StableJSON re-checks every float
// field.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"colt/internal/telemetry"
)

// Schema identifies the report layout; bump when fields change meaning.
const Schema = "colt-metrics/1"

// Ratio returns num/den, or 0 when den is zero: degenerate runs (zero
// lookups, zero fills, zero cycles) serialize as 0, never Inf/NaN.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// LevelStats is one TLB structure's counters (set-associative L1/L2 or
// the fully-associative superpage TLB).
type LevelStats struct {
	Lookups     uint64 `json:"lookups"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Fills       uint64 `json:"fills"`
	CoalescedIn uint64 `json:"coalesced_in"`
	Evictions   uint64 `json:"evictions"`
	// Merges counts fill-time coalescings with resident entries
	// (superpage TLB only; zero elsewhere).
	Merges uint64 `json:"merges"`
	// HitRate is Hits/Lookups (0 for zero-lookup runs).
	HitRate float64 `json:"hit_rate"`
	// TranslationsPerFill is the structure's reach amplification:
	// (Fills+CoalescedIn)/Fills (0 for zero-fill runs).
	TranslationsPerFill float64 `json:"translations_per_fill"`
}

// VariantHists bundles one TLB variant's distribution histograms, each
// a telemetry.Hist snapshot (see Hist.Snapshot and Hist.MarshalJSON).
type VariantHists struct {
	// CoalesceLen is the distribution of coalesced-run lengths over
	// fills (1 = uncoalesced).
	CoalesceLen *telemetry.Hist `json:"coalesce_len,omitempty"`
	// WalkCycles is the distribution of modeled page-walk latencies.
	WalkCycles *telemetry.Hist `json:"walk_cycles,omitempty"`
	// EntryLife is the distribution of TLB entry lifetimes, in
	// references from fill to eviction.
	EntryLife *telemetry.Hist `json:"entry_lifetime,omitempty"`
}

// RecordHists bundles the per-job (variant-independent) histograms.
type RecordHists struct {
	// ContigRun is the distribution of maximal contiguity-run lengths
	// from the job's page-table scan (each run counts once).
	ContigRun *telemetry.Hist `json:"contig_run,omitempty"`
	// WalkDepth is the distribution of page-walk depths in levels over
	// the job's shared page table (4 = full walk, 3 = huge leaf).
	WalkDepth *telemetry.Hist `json:"walk_depth,omitempty"`
}

// Variant is one TLB configuration's measurements within a record.
type Variant struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`

	// Hierarchy-level counters.
	Accesses       uint64 `json:"accesses"`
	L1Misses       uint64 `json:"l1_misses"`
	L2Misses       uint64 `json:"l2_misses"`
	Walks          uint64 `json:"walks"`
	Faults         uint64 `json:"faults"`
	WalkCycles     uint64 `json:"walk_cycles"`
	CoalescedFills uint64 `json:"coalesced_fills"`

	// Per-structure counters.
	L1  LevelStats `json:"l1"`
	L2  LevelStats `json:"l2"`
	Sup LevelStats `json:"sup"`

	// Derived rates (all zero-guarded).
	L1MPMI     float64 `json:"l1_mpmi"`
	L2MPMI     float64 `json:"l2_mpmi"`
	L1MissRate float64 `json:"l1_miss_rate"`
	L2MissRate float64 `json:"l2_miss_rate"`

	// Performance model.
	MemStallCycles uint64  `json:"mem_stall_cycles"`
	ModelCycles    float64 `json:"model_cycles"`
	// SpeedupPct is the modeled speedup over the record's baseline
	// (first) variant; 0 for the baseline itself.
	SpeedupPct float64 `json:"speedup_pct"`
	// SubblockRejectedPct is the share of a partial-subblock TLB's
	// fills that met an entry for their block but could not share it
	// (absent for every other policy).
	SubblockRejectedPct float64 `json:"subblock_rejected_pct,omitempty"`

	// Hists holds the variant's distribution histograms (absent unless
	// the run enabled histograms, keeping pre-histogram goldens
	// byte-identical).
	Hists *VariantHists `json:"hists,omitempty"`
}

// Contiguity is one page-table scan's summary.
type Contiguity struct {
	PageAvg       float64 `json:"page_avg"`
	RunAvg        float64 `json:"run_avg"`
	SuperPages    int     `json:"super_pages"`
	NonSuperPages int     `json:"non_super_pages"`
	MaxRun        int     `json:"max_run"`
	FracOver512   float64 `json:"frac_over_512"`
}

// TimelinePoint is one periodic page-table scan of a timeline record.
type TimelinePoint struct {
	// RefsDone is how many foreground references had executed.
	RefsDone int `json:"refs_done"`
	// PageAvg and RunAvg are the two contiguity averages.
	PageAvg float64 `json:"page_avg"`
	RunAvg  float64 `json:"run_avg"`
	// MappedPages is the workload's resident page count (drops under
	// swap pressure).
	MappedPages int `json:"mapped_pages"`
	// Superpages counts currently huge-mapped pages.
	Superpages int `json:"superpages"`
}

// Record kinds.
const (
	KindBench    = "bench"    // TLB simulation over a reference stream
	KindContig   = "contig"   // single page-table contiguity scan
	KindTimeline = "timeline" // periodic contiguity scans over a run
)

// Record is one (benchmark × setup) job's structured result.
type Record struct {
	Kind  string `json:"kind"`
	Bench string `json:"bench"`
	Setup string `json:"setup"`
	// Seed is the job's derived master seed — a pure function of
	// (run seed, bench, setup), recorded so any single job can be
	// reproduced in isolation.
	Seed         uint64          `json:"seed"`
	Instructions uint64          `json:"instructions,omitempty"`
	Contig       *Contiguity     `json:"contiguity,omitempty"`
	Variants     []Variant       `json:"variants,omitempty"`
	Timeline     []TimelinePoint `json:"timeline,omitempty"`
	// Spans are the job's phase spans in simulated time (absent unless
	// the run enabled histograms/telemetry); their wall-clock durations
	// go to the timing sidecar only.
	Spans []telemetry.Span `json:"spans,omitempty"`
	// Hists holds the job-level histograms (absent unless enabled).
	Hists *RecordHists `json:"hists,omitempty"`
}

// Failure is one (benchmark × setup) job that produced no record:
// every attempt errored, panicked, or timed out. Failures are part of
// the stable report — the error text and attempt count are
// deterministic functions of the run's seed and fault spec — so a
// degraded run is still byte-identical across parallel widths.
type Failure struct {
	Kind  string `json:"kind"`
	Bench string `json:"bench"`
	Setup string `json:"setup"`
	// Attempts is how many times the job ran (1 = no retries).
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
	// Injected marks failures caused by the fault-injection plane.
	Injected bool `json:"injected"`
	// TimedOut marks per-job timeout kills. Timeouts are wall-clock
	// events; runs that must stay deterministic use bounds generous
	// enough that this only fires on hangs.
	TimedOut bool `json:"timed_out,omitempty"`
	// Canceled marks jobs skipped or aborted because the run's context
	// was canceled (SIGINT on the CLI, DELETE or drain on the daemon).
	// Like timeouts, cancellation is a wall-clock event and only
	// appears in interrupted runs, never in goldens.
	Canceled bool `json:"canceled,omitempty"`
}

// failureKey orders failures like records: by identity, then content.
func failureKey(f Failure) string {
	return f.Kind + "\x00" + f.Bench + "\x00" + f.Setup + "\x00" + f.Error
}

// Options is the deterministic snapshot of an experiment run's knobs.
// The worker count is deliberately absent: it is a throughput knob,
// never a results knob, and reports must be byte-identical across
// -parallel widths.
type Options struct {
	Frames      int     `json:"frames"`
	Scale       float64 `json:"scale"`
	ColdScale   float64 `json:"cold_scale"`
	ChurnOps    int     `json:"churn_ops"`
	Warmup      int     `json:"warmup"`
	Refs        int     `json:"refs"`
	Seed        uint64  `json:"seed"`
	MidRunChurn bool    `json:"mid_run_churn"`
	// FaultSpec is the canonical fault-injection spec ("" when faults
	// are disabled, which keeps faultless reports byte-identical to
	// pre-fault goldens).
	FaultSpec string `json:"fault_spec,omitempty"`
	// Histograms records that the run embedded telemetry histograms
	// and spans in its records (omitted when off, which keeps
	// histogram-less reports byte-identical to older goldens).
	Histograms bool `json:"histograms,omitempty"`
}

// Report is one experiment's full machine-readable result.
type Report struct {
	Schema     string   `json:"schema"`
	Experiment string   `json:"experiment"`
	Options    Options  `json:"options"`
	Records    []Record `json:"records"`
	// Failures lists jobs that produced no record (absent when every
	// job succeeded, so faultless goldens are unchanged).
	Failures []Failure `json:"failures,omitempty"`
}

// recordKey orders records deterministically regardless of the
// scheduling order jobs completed in.
func recordKey(r Record) string {
	return r.Kind + "\x00" + r.Bench + "\x00" + r.Setup
}

// StableJSON serializes the report as indented JSON with keys sorted at
// every nesting level, suitable for byte-comparison against goldens.
// It fails if any float field is Inf or NaN, naming the field.
func (r *Report) StableJSON() ([]byte, error) {
	if r.Records == nil {
		r.Records = []Record{}
	}
	if err := r.CheckFinite(); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("metrics: encoding report: %w", err)
	}
	// Round-trip through an untyped tree: encoding/json sorts map keys
	// on marshal, and json.Number preserves numeric literals exactly.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("metrics: normalizing report: %w", err)
	}
	out, err := json.MarshalIndent(tree, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: re-encoding report: %w", err)
	}
	return append(out, '\n'), nil
}

// CheckFinite walks every float in the report and returns an error
// naming the first Inf/NaN field, so a division-guard regression is
// reported precisely instead of as an opaque marshal failure.
func (r *Report) CheckFinite() error {
	for i := range r.Records {
		rec := &r.Records[i]
		at := fmt.Sprintf("records[%s/%s/%s]", rec.Kind, rec.Bench, rec.Setup)
		if c := rec.Contig; c != nil {
			if err := checkFinite(at+".contiguity", map[string]float64{
				"page_avg": c.PageAvg, "run_avg": c.RunAvg, "frac_over_512": c.FracOver512,
			}); err != nil {
				return err
			}
		}
		for j := range rec.Variants {
			v := &rec.Variants[j]
			if err := checkFinite(fmt.Sprintf("%s.variants[%s]", at, v.Name), map[string]float64{
				"l1_mpmi": v.L1MPMI, "l2_mpmi": v.L2MPMI,
				"l1_miss_rate": v.L1MissRate, "l2_miss_rate": v.L2MissRate,
				"model_cycles": v.ModelCycles, "speedup_pct": v.SpeedupPct,
				"l1.hit_rate": v.L1.HitRate, "l2.hit_rate": v.L2.HitRate, "sup.hit_rate": v.Sup.HitRate,
				"l1.translations_per_fill":  v.L1.TranslationsPerFill,
				"l2.translations_per_fill":  v.L2.TranslationsPerFill,
				"sup.translations_per_fill": v.Sup.TranslationsPerFill,
				"subblock_rejected_pct":     v.SubblockRejectedPct,
			}); err != nil {
				return err
			}
		}
		for j, p := range rec.Timeline {
			if err := checkFinite(fmt.Sprintf("%s.timeline[%d]", at, j), map[string]float64{
				"page_avg": p.PageAvg, "run_avg": p.RunAvg,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkFinite(at string, fields map[string]float64) error {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := fields[name]; math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("metrics: %s.%s is %v (non-finite values must not reach JSON output)", at, name, v)
		}
	}
	return nil
}

// timedRecord pairs a record with its job's wall-clock duration, kept
// out of the stable report so goldens stay byte-comparable.
type timedRecord struct {
	rec  Record
	wall time.Duration
}

// Collector gathers records from concurrently running jobs. The zero
// value is not usable; use NewCollector. All methods are safe for
// concurrent use.
type Collector struct {
	mu        sync.Mutex
	recs      []timedRecord
	fails     []Failure
	schedJobs int
	schedWall time.Duration
	sched     []SchedJobTiming
	// phases maps "kind/bench/setup" to the job's wall-clock phase
	// breakdown (timing sidecar only; the golden-safe simulated-time
	// spans live on the Record itself).
	phases map[string][]PhaseTiming
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one job's result and its wall-clock duration.
func (c *Collector) Add(rec Record, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, timedRecord{rec: rec, wall: wall})
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// AddFailure records one job that produced no record.
func (c *Collector) AddFailure(f Failure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fails = append(c.fails, f)
}

// Failures returns the collected failures sorted deterministically.
func (c *Collector) Failures() []Failure {
	c.mu.Lock()
	fails := append([]Failure(nil), c.fails...)
	c.mu.Unlock()
	sort.SliceStable(fails, func(i, j int) bool {
		return failureKey(fails[i]) < failureKey(fails[j])
	})
	return fails
}

// ObserveJob implements the scheduler's per-job timing hook
// (sched.Pool.SetObserver): it aggregates dispatch counts and total
// busy time for the timing report, and keeps each dispatch's label so
// the sidecar names jobs as (kind, bench, setup), not opaque indices.
func (c *Collector) ObserveJob(job int, label string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.schedJobs++
	c.schedWall += d
	c.sched = append(c.sched, SchedJobTiming{Job: job, Label: label, WallMS: float64(d) / float64(time.Millisecond)})
}

// AddSpans records one job's wall-clock phase breakdown for the timing
// sidecar, keyed by the job's (kind, bench, setup) identity.
func (c *Collector) AddSpans(kind, bench, setup string, spans []telemetry.Span) {
	if len(spans) == 0 {
		return
	}
	pts := make([]PhaseTiming, len(spans))
	for i, sp := range spans {
		pts[i] = PhaseTiming{
			Name:     sp.Name,
			StartRef: sp.StartRef,
			EndRef:   sp.EndRef,
			WallMS:   float64(sp.Wall) / float64(time.Millisecond),
		}
	}
	key := kind + "/" + bench + "/" + setup
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phases == nil {
		c.phases = make(map[string][]PhaseTiming)
	}
	c.phases[key] = pts
}

// Merge copies every record and timing aggregate from another
// collector (used when a cached evaluation feeds several figures).
func (c *Collector) Merge(from *Collector) {
	if from == nil || from == c {
		return
	}
	from.mu.Lock()
	recs := append([]timedRecord(nil), from.recs...)
	fails := append([]Failure(nil), from.fails...)
	sched := append([]SchedJobTiming(nil), from.sched...)
	jobs, wall := from.schedJobs, from.schedWall
	var phases map[string][]PhaseTiming
	if len(from.phases) > 0 {
		phases = make(map[string][]PhaseTiming, len(from.phases))
		for k, v := range from.phases {
			phases[k] = v
		}
	}
	from.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, recs...)
	c.fails = append(c.fails, fails...)
	c.sched = append(c.sched, sched...)
	c.schedJobs += jobs
	c.schedWall += wall
	for k, v := range phases {
		if c.phases == nil {
			c.phases = make(map[string][]PhaseTiming)
		}
		c.phases[k] = v
	}
}

// sorted returns the records ordered by (kind, bench, setup) with a
// full-content tiebreak, so the output order never depends on job
// completion order.
func (c *Collector) sorted() []timedRecord {
	c.mu.Lock()
	recs := append([]timedRecord(nil), c.recs...)
	c.mu.Unlock()
	sort.SliceStable(recs, func(i, j int) bool {
		ki, kj := recordKey(recs[i].rec), recordKey(recs[j].rec)
		if ki != kj {
			return ki < kj
		}
		bi, _ := json.Marshal(recs[i].rec)
		bj, _ := json.Marshal(recs[j].rec)
		return bytes.Compare(bi, bj) < 0
	})
	return recs
}

// Report assembles the stable report for one experiment.
func (c *Collector) Report(experiment string, opts Options) *Report {
	timed := c.sorted()
	recs := make([]Record, len(timed))
	for i, tr := range timed {
		recs[i] = tr.rec
	}
	return &Report{Schema: Schema, Experiment: experiment, Options: opts, Records: recs, Failures: c.Failures()}
}

// TimingReport is the non-deterministic sidecar: per-job wall-clock
// plus scheduler aggregates. It is written alongside the stable report
// but never golden-diffed.
type TimingReport struct {
	Schema     string      `json:"schema"`
	Experiment string      `json:"experiment"`
	Records    []JobTiming `json:"records"`
	// Sched lists one entry per scheduler job, failed jobs included,
	// with its label. The pool's observer times a job's whole retry
	// loop, so a job has one entry however many attempts it took.
	// Records has one entry per emitted record instead, so the two
	// lengths can differ either way.
	Sched     []SchedJobTiming `json:"sched,omitempty"`
	SchedJobs int              `json:"sched_jobs"`
	SchedMS   float64          `json:"sched_total_ms"`
	TotalMS   float64          `json:"total_ms"`
}

// JobTiming is one job's wall-clock entry.
type JobTiming struct {
	Kind   string  `json:"kind"`
	Bench  string  `json:"bench"`
	Setup  string  `json:"setup"`
	WallMS float64 `json:"wall_ms"`
	// Phases breaks the job's wall-clock down by telemetry span, with
	// the simulated-time bounds alongside for cross-reference.
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// PhaseTiming is one phase span's wall-clock entry in the sidecar.
type PhaseTiming struct {
	Name     string  `json:"name"`
	StartRef uint64  `json:"start_ref"`
	EndRef   uint64  `json:"end_ref"`
	WallMS   float64 `json:"wall_ms"`
}

// SchedJobTiming is one scheduler job: the job index within its
// fan-out, the job's label (empty when the pool had no labeler), and
// its wall-clock across every attempt.
type SchedJobTiming struct {
	Job    int     `json:"job"`
	Label  string  `json:"label,omitempty"`
	WallMS float64 `json:"wall_ms"`
}

// TimingJSON serializes the timing sidecar (indented, key-sorted like
// the stable report, but with values that vary run to run).
func (c *Collector) TimingJSON(experiment string) ([]byte, error) {
	timed := c.sorted()
	c.mu.Lock()
	jobs, wall := c.schedJobs, c.schedWall
	sched := append([]SchedJobTiming(nil), c.sched...)
	phases := c.phases
	c.mu.Unlock()
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].Label != sched[j].Label {
			return sched[i].Label < sched[j].Label
		}
		return sched[i].Job < sched[j].Job
	})
	tr := TimingReport{
		Schema:     Schema,
		Experiment: experiment,
		Records:    make([]JobTiming, len(timed)),
		Sched:      sched,
		SchedJobs:  jobs,
		SchedMS:    float64(wall) / float64(time.Millisecond),
	}
	var total time.Duration
	for i, t := range timed {
		tr.Records[i] = JobTiming{
			Kind:   t.rec.Kind,
			Bench:  t.rec.Bench,
			Setup:  t.rec.Setup,
			WallMS: float64(t.wall) / float64(time.Millisecond),
			Phases: phases[t.rec.Kind+"/"+t.rec.Bench+"/"+t.rec.Setup],
		}
		total += t.wall
	}
	tr.TotalMS = float64(total) / float64(time.Millisecond)
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("metrics: encoding timing report: %w", err)
	}
	return append(out, '\n'), nil
}

// Diff structurally compares two stable-JSON documents and returns one
// human-readable line per differing field (path, got, want). It returns
// nil when the documents are semantically identical. At most maxDiffs
// lines are reported.
func Diff(got, want []byte) []string {
	const maxDiffs = 50
	var a, b any
	da := json.NewDecoder(bytes.NewReader(got))
	da.UseNumber()
	if err := da.Decode(&a); err != nil {
		return []string{fmt.Sprintf("got: not valid JSON: %v", err)}
	}
	db := json.NewDecoder(bytes.NewReader(want))
	db.UseNumber()
	if err := db.Decode(&b); err != nil {
		return []string{fmt.Sprintf("want: not valid JSON: %v", err)}
	}
	var out []string
	diffAny("$", a, b, &out, maxDiffs)
	return out
}

func diffAny(path string, a, b any, out *[]string, limit int) {
	if len(*out) >= limit {
		return
	}
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: got object, want %s", path, typeName(b)))
			return
		}
		keys := map[string]bool{}
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			sub := path + "." + k
			va, inA := av[k]
			vb, inB := bv[k]
			switch {
			case !inA:
				*out = append(*out, fmt.Sprintf("%s: missing in run output (golden has %s)", sub, compact(vb)))
			case !inB:
				*out = append(*out, fmt.Sprintf("%s: not in golden (run output has %s)", sub, compact(va)))
			default:
				diffAny(sub, va, vb, out, limit)
			}
			if len(*out) >= limit {
				return
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: got array, want %s", path, typeName(b)))
			return
		}
		if len(av) != len(bv) {
			*out = append(*out, fmt.Sprintf("%s: array length %d, want %d", path, len(av), len(bv)))
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			diffAny(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], out, limit)
			if len(*out) >= limit {
				return
			}
		}
	default:
		if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) || typeName(a) != typeName(b) {
			*out = append(*out, fmt.Sprintf("%s: got %s, want %s", path, compact(a), compact(b)))
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "object"
	case []any:
		return "array"
	case json.Number:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case nil:
		return "null"
	}
	return fmt.Sprintf("%T", v)
}

func compact(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	s := string(b)
	if len(s) > 80 {
		s = s[:77] + "..."
	}
	return strings.TrimSpace(s)
}
