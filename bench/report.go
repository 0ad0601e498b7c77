package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one metric the result line carries and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its
// order: every run prints all of one list on its result line
// (end-to-end untraced, per-layer traced), for every workload. The
// smoke test holds BENCHMARK.json to these lists. latency_p99_ms and
// error_rate are printed but not on the result line: p99 has fewer
// than ten samples beyond it on sim-long and serve-miss, and
// error_rate is always 0 (failures also show as "failed").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"goodput_rps", "1/s"},
}

var perLayer = []metricDef{
	{"experiments.build_ms", "ms"},
	{"experiments.warmup_ms", "ms"},
	{"experiments.simulate_ms", "ms"},
	{"sched.busy_share", "ratio"},
	{"mm.churn_ms", "ms"},
	{"mm.settle_ms", "ms"},
	{"vm.memhog_ms", "ms"},
	{"mm.buddy_allocs", "count"},
	{"mm.compact_migrated", "count"},
	{"mm.thp_promoted", "count"},
	{"workload.build_ms", "ms"},
	{"workload.next_ns", "ns"},
	{"core.access_ns", "ns"},
	{"core.l1_misses", "count"},
	{"core.l2_misses", "count"},
	{"core.walks", "count"},
	{"core.coalesced_fills", "count"},
	{"mmu.walk_ns", "ns"},
	{"mmu.walk_cache_hit_ratio", "ratio"},
	{"cache.front_ns", "ns"},
	{"cache.llc_events_per_ref", "ratio"},
	{"cache.llc_ns", "ns"},
	{"contig.scan_ms", "ms"},
	{"metrics.encode_ms", "ms"},
	{"metrics.hash_ms", "ms"},
	{"metrics.report_kb", "KiB"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"replay.accounted_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// metricValue is one printed metric. Timings carry their distribution;
// an end-to-end rate carries the count of operations it rests on.
type metricValue struct {
	Name  string
	Unit  string
	Value float64
	Dist  *summary
	N     int
}

// result is everything one workload run prints.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	// Errors describes the first failed output checks.
	Errors []string
	E2E    []metricValue
	Layer  []metricValue
	Spans  []spanStats
}

// e2e adds an end-to-end rate measured over n operations.
func (r *result) e2e(name, unit string, v float64, n int) {
	r.E2E = append(r.E2E, metricValue{Name: name, Unit: unit, Value: v, N: n})
}
func (r *result) layer(name, unit string, v float64) {
	r.Layer = append(r.Layer, metricValue{Name: name, Unit: unit, Value: v})
}

// timing adds an end-to-end timing reported by its median, with its
// distribution.
func (r *result) timing(name, unit string, xs []float64) {
	s := summarize(xs)
	r.E2E = append(r.E2E, metricValue{Name: name, Unit: unit, Value: s.Median, Dist: &s})
}

// layerTiming adds a per-layer timing at percentile p of xs.
func (r *result) layerTiming(name, unit string, xs []float64, p float64) {
	s := summarize(xs)
	r.Layer = append(r.Layer, metricValue{Name: name, Unit: unit, Value: percentile(xs, p), Dist: &s})
}

// fail records a failed operation and, for the first few, why.
func (r *result) fail(ops int, err error) {
	r.Failed += ops
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// print writes the human-readable report and, last, the one-line JSON
// result. It errors if a metric the result line must carry is missing
// or not finite.
func (r *result) print(w io.Writer) error {
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error  %-11s %s\n", r.Workload, e)
	}
	for _, m := range r.E2E {
		fmt.Fprintf(w, "e2e    %-11s %-26s %s\n", r.Workload, m.Name, formatValue(m))
	}
	for _, m := range r.Layer {
		fmt.Fprintf(w, "layer  %-11s %-26s %s\n", r.Workload, m.Name, formatValue(m))
	}
	for _, s := range r.Spans {
		fmt.Fprintf(w, "span   %-11s %-26s total_ms=%.3f self_ms=%.3f spans=%d calls=%d p50_ms=%.4f\n",
			r.Workload, s.Name, ms(s.Total), ms(s.Self), s.Spans, s.Calls, ms(s.P50))
	}
	defs, values := endToEnd, r.E2E
	if r.Traced {
		defs, values = perLayer, r.Layer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.Failed == 0 && len(r.Errors) == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		m, ok := find(values, d.Name)
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s (%s) is missing or not finite", r.Workload, d.Name, d.Unit)
		}
		line.Metrics[d.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func formatValue(m metricValue) string {
	s := fmt.Sprintf("%.6g %s", m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf("  n=%d", m.N)
	}
	if d := m.Dist; d != nil {
		s += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", d.N, d.Q1, d.Q3)
		if d.TailOK {
			s += fmt.Sprintf(" p%g=%.6g", d.TailP, d.Tail)
		}
	}
	return s
}

func find(ms []metricValue, name string) (metricValue, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// errorRate is failed over attempted operations.
func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// rtSnap is a runtime counter snapshot taken at a window edge.
type rtSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return rtSnap{alloc: m.TotalAlloc, gcs: m.NumGC, pauseNs: m.PauseTotalNs}
}

// runtimeLayer adds the runtime layer's metrics for a window that ran
// ops operations between the two snapshots.
func (r *result) runtimeLayer(from, to rtSnap, ops int) {
	r.layer("runtime.alloc_mb_per_op", "MB", float64(to.alloc-from.alloc)/1e6/float64(max(ops, 1)))
	r.layer("runtime.gc_cycles", "count", float64(to.gcs-from.gcs))
	r.layer("runtime.gc_pause_ms", "ms", float64(to.pauseNs-from.pauseNs)/1e6)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.layer("runtime.peak_rss_mb", "MB", float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
	}
}

// spanLayer derives the simulator layers' per-call times and the
// replay's counters from its spans.
func (r *result) spanLayer(spans []spanStats, c *replayCounts) {
	by := make(map[string]spanStats, len(spans))
	var accounted time.Duration
	for _, s := range spans {
		by[s.Name] = s
		if layerSpans[s.Name] {
			accounted += s.Total
		}
	}
	perCall := func(s spanStats, unit time.Duration) float64 {
		return float64(s.Total) / float64(unit) / float64(max(s.Calls, 1))
	}
	// Build-phase spans occur once per replayed job.
	perJob := func(name string) float64 { return ms(by[name].Total) / float64(max(by[name].Spans, 1)) }
	r.layer("mm.churn_ms", "ms", perJob("mm.churn"))
	r.layer("mm.settle_ms", "ms", perJob("mm.settle"))
	r.layer("vm.memhog_ms", "ms", perJob("vm.memhog"))
	r.layer("mm.buddy_allocs", "count", float64(c.BuddyAllocs))
	r.layer("mm.compact_migrated", "count", float64(c.CompactMigrated))
	r.layer("mm.thp_promoted", "count", float64(c.THPPromoted))
	r.layer("workload.build_ms", "ms", perJob("workload.build"))
	r.layer("workload.next_ns", "ns", perCall(by["workload.next"], time.Nanosecond))
	access := by["core.access"]
	access.Total -= by["cache.llc"].Total // the LLC replay runs inside the access spans
	r.layer("core.access_ns", "ns", perCall(access, time.Nanosecond))
	r.layer("core.l1_misses", "count", float64(c.L1Misses))
	r.layer("core.l2_misses", "count", float64(c.L2Misses))
	r.layer("core.walks", "count", float64(c.Walks))
	r.layer("core.coalesced_fills", "count", float64(c.CoalescedFills))
	r.layer("mmu.walk_ns", "ns", perCall(by["mmu.walk"], time.Nanosecond))
	r.layer("mmu.walk_cache_hit_ratio", "ratio", float64(c.PWCHits)/float64(max(c.PWCHits+c.PWCMisses, 1)))
	r.layer("cache.front_ns", "ns", perCall(by["cache.front"], time.Nanosecond))
	r.layer("cache.llc_events_per_ref", "ratio", float64(c.LLCEvents)/float64(max(c.Refs, 1)))
	r.layer("cache.llc_ns", "ns", perCall(by["cache.llc"], time.Nanosecond))
	r.layer("contig.scan_ms", "ms", perJob("contig.scan"))
	r.layer("replay.accounted_share", "ratio", float64(accounted)/float64(c.RealWall))
	r.layer("replay.jobs", "count", float64(c.Jobs))
	r.layer("replay.mismatched_jobs", "count", float64(c.MismatchedJobs))
}
