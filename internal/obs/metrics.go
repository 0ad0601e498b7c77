// Package obs is coltd's production observability layer: a
// zero-dependency Prometheus-text-format metrics registry and the
// request-scoped trace IDs that correlate a submission's log lines,
// WAL record, and span timeline end to end.
//
// The registry follows the same contract as internal/telemetry: the
// recording hot path is pure atomics — Counter.Inc, Gauge.Set, and
// Histogram.Observe never allocate and never take a lock — so the
// serving stack can instrument every admission without measurable
// cost. Scrapes read the same atomics; the registry mutex guards
// registration only (which completes before serving starts) and is
// never held by a recording call, so a monitoring scrape can never
// stall admission. Func collectors export counters the server already
// maintains as atomics without double-counting.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types as they render in the # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores an int64 —
// every gauge the server exports is a count or a 0/1 flag.
type Gauge struct {
	v atomic.Int64
}

// Set stores v; Inc, Dec, and Add adjust it.
func (g *Gauge) Set(v int64)  { g.v.Store(v) }
func (g *Gauge) Inc()         { g.v.Add(1) }
func (g *Gauge) Dec()         { g.v.Add(-1) }
func (g *Gauge) Add(n int64)  { g.v.Add(n) }
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bounds are
// ascending upper edges; observations above the last bound land in
// the implicit +Inf bucket. Observe is lock-free and allocation-free:
// one binary search, two atomic adds, and a CAS loop folding the
// observation into the float64 sum.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is the bucket (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nu) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default upper-bound set for wall-clock
// seconds histograms: 100µs to ~2min in roughly 3× steps, tight
// enough at the bottom to resolve cache-hit serving and wide enough
// at the top to hold a full simulation.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// sample is one exported series within a family.
type sample struct {
	labels string // rendered {k="v",...} or ""
	value  func() float64
	hist   *Histogram
}

// family is one metric name: its help, type, and samples.
type family struct {
	name, help, typ string
	samples         []sample
}

// Registry holds registered metrics and renders them in Prometheus
// text exposition format. Registration is expected to finish before
// serving begins; recording and scraping are then both lock-free with
// respect to each other and to the hot path.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// labelPairs renders ("k","v","k2","v2") as a deterministic
// Prometheus label block. Panics on odd-length or empty-key input —
// label sets are compile-time constants in this codebase.
func labelPairs(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if kv[i] == "" {
			panic("obs: empty label key")
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// register resolves (or creates) the family for name, enforcing that
// help and type never diverge between series of one name, and that no
// series is registered twice.
func (r *Registry) register(name, help, typ string, s sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %s registered with two help strings", name))
	}
	for _, prev := range f.samples {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.samples = append(f.samples, s)
}

// Counter registers and returns a counter series. Labels are
// ("key", "value") pairs; registering the same name with different
// label values grows the family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, sample{
		labels: labelPairs(labels),
		value:  func() float64 { return float64(c.Value()) },
	})
	return c
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time — the bridge to counters the server already keeps as
// atomics (cache hits, journal appends) without double-counting. fn
// must be safe for concurrent use and monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeCounter, sample{labels: labelPairs(labels), value: fn})
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.register(name, help, typeGauge, sample{
		labels: labelPairs(labels),
		value:  func() float64 { return float64(g.Value()) },
	})
	return g
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, typeGauge, sample{labels: labelPairs(labels), value: fn})
}

// Histogram registers and returns a histogram series with the given
// ascending bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	r.register(name, help, typeHistogram, sample{labels: labelPairs(labels), hist: h})
	return h
}

// formatValue renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// histLabels splices the le (or no) label into an existing label
// block: "{a=\"b\"}" + le -> "{a=\"b\",le=\"...\"}".
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4), families sorted by name, samples in
// registration order. Values are atomic loads; the registry mutex is
// held only to snapshot the family list.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			if s.hist == nil {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
				continue
			}
			h := s.hist
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, histLabels(s.labels, formatValue(bound)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, histLabels(s.labels, "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatValue(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
