package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.", "outcome", "ok")
	c2 := r.Counter("test_ops_total", "Operations.", "outcome", "err")
	g := r.Gauge("test_depth", "Depth.")
	r.GaugeFunc("test_flag", "Flag.", func() float64 { return 1 })
	r.CounterFunc("test_ext_total", "External counter.", func() float64 { return 42 })

	c.Inc()
	c.Add(2)
	c2.Inc()
	g.Set(7)
	g.Inc()
	g.Dec()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n",
		"# TYPE test_ops_total counter\n",
		`test_ops_total{outcome="ok"} 3` + "\n",
		`test_ops_total{outcome="err"} 1` + "\n",
		"# TYPE test_depth gauge\n",
		"test_depth 7\n",
		"test_flag 1\n",
		"test_ext_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_ops_total") {
		t.Error("families not sorted by name")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket le=0.01
	h.Observe(0.01)  // le semantics: boundary lands in its own bucket
	h.Observe(0.5)   // le=1
	h.Observe(5)     // +Inf

	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-5.515) > 1e-9 {
		t.Fatalf("sum = %g, want 5.515", h.Sum())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram\n",
		`test_latency_seconds_bucket{le="0.01"} 2` + "\n",
		`test_latency_seconds_bucket{le="0.1"} 2` + "\n",
		`test_latency_seconds_bucket{le="1"} 3` + "\n",
		`test_latency_seconds_bucket{le="+Inf"} 4` + "\n",
		"test_latency_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramLabelsSpliceLe(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_phase_seconds", "Phase.", []float64{1}, "phase", "run")
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_phase_seconds_bucket{phase="run",le="1"} 1`) {
		t.Fatalf("le label not spliced into existing labels:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `test_phase_seconds_sum{phase="run"} 0.5`) {
		t.Fatalf("sum missing its labels:\n%s", b.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_a_total", "A.")
	mustPanic("duplicate series", func() { r.Counter("test_a_total", "A.") })
	mustPanic("type clash", func() { r.Gauge("test_a_total", "A.") })
	mustPanic("help clash", func() { r.Counter("test_a_total", "B.", "k", "v") })
	mustPanic("odd labels", func() { r.Counter("test_b_total", "B.", "k") })
	mustPanic("empty label key", func() { r.Counter("test_c_total", "C.", "", "v") })
	mustPanic("empty buckets", func() { r.Histogram("test_h", "H.", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("test_h2", "H2.", []float64{1, 1}) })
}

// TestRecordingIsAllocFree pins the hot-path contract: recording into
// counters, gauges, and histograms allocates nothing.
func TestRecordingIsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_allocs_total", "A.")
	g := r.Gauge("test_allocs", "G.")
	h := r.Histogram("test_allocs_seconds", "H.", LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.004)
	}); n != 0 {
		t.Fatalf("recording allocates %v per op, want 0", n)
	}
}

// TestConcurrentRecordAndScrape hammers one registry from writers and
// scrapers at once; run under -race this is the lock-free contract.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "C.")
	h := r.Histogram("test_conc_seconds", "H.", []float64{0.001, 0.01, 0.1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 20000 {
		t.Fatalf("counter = %d, want 20000", c.Value())
	}
	if h.Count() != 20000 {
		t.Fatalf("histogram count = %d, want 20000", h.Count())
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two minted trace IDs collide: %s", a)
	}
	if len(a) != 16 || !ValidTraceID(a) {
		t.Fatalf("minted ID %q is not a valid 16-hex trace ID", a)
	}
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("trace ID %s repeated within 1000 mints", id)
		}
		seen[id] = true
	}
	valid := []string{"deadbeef", "0123456789abcdef", "A1B2-C3D4-E5F6aa"}
	for _, s := range valid {
		if !ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", "short", strings.Repeat("a", 65), "deadbeefg", "dead beef", "хекс-байт"}
	for _, s := range invalid {
		if ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = true, want false", s)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3:      "3",
		-2:     "-2",
		0.5:    "0.5",
		1e16:   "1e+16",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%g) = %q, want %q", in, got, want)
		}
	}
}
