package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilReceiversAreSafe(t *testing.T) {
	var tr *Tracer
	tr.SetNow(5)
	tr.Emit(EvTLBHit, 1, LevelL1, 10, 0)
	tr.SetStride(EvTLBHit, 2)
	if tr.Events() != nil || tr.Seen(EvTLBHit) != 0 || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Fatal("nil tracer must observe nothing")
	}

	var h *Hist
	h.Observe(7)
	h.Merge(&Hist{Count: 1})
	if h.Snapshot() != nil {
		t.Fatal("nil hist must observe nothing")
	}

	var s *Sink
	s.Hit(LevelL1, 1)
	s.Miss(LevelL2, 1)
	s.Walk(1, 40)
	s.Fill(1, 4)
	s.Merge(LevelL2, 1, 8)
	s.Evict(LevelL2, 1, 100)
	if s.Tracer() != nil {
		t.Fatal("nil sink has no tracer")
	}

	var sp *Spans
	sp.Begin("warmup", 0)
	sp.End(10)
	sp.OnPhase(func(string) {})
	if sp.All() != nil {
		t.Fatal("nil spans must record nothing")
	}

	var ts *TraceSet
	ts.Add(JobTrace{Label: "x"})
	if ts.Len() != 0 {
		t.Fatal("nil trace set must record nothing")
	}
	var buf bytes.Buffer
	if err := ts.WriteChrome(&buf); err != nil {
		t.Fatalf("nil TraceSet WriteChrome: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil TraceSet output not valid JSON: %s", buf.String())
	}

	var r *Reporter
	r.AddJobs(3)
	r.Phase("a", "warmup")
	r.Done("a", true)
	if d, tot, f := r.Counts(); d != 0 || tot != 0 || f != 0 {
		t.Fatal("nil reporter must count nothing")
	}
}

func TestDisabledPathsDoNotAllocate(t *testing.T) {
	var tr *Tracer
	var h *Hist
	var s *Sink
	allocs := testing.AllocsPerRun(1000, func() {
		tr.SetNow(1)
		tr.Emit(EvTLBMiss, 1, LevelL1, 2, 3)
		h.Observe(9)
		s.Hit(LevelL1, 4)
		s.Walk(4, 30)
		s.Fill(4, 2)
		s.Evict(LevelL2, 4, 55)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledPathsDoNotAllocate(t *testing.T) {
	tr := NewTracer(64)
	s := NewSink(tr, 1)
	var h Hist
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.SetNow(i)
		s.Hit(LevelL1, i)
		s.Miss(LevelL2, i)
		s.Walk(i, 24)
		s.Fill(i, 4)
		s.Evict(LevelL2, i, i)
		h.Observe(i)
	})
	if allocs != 0 {
		t.Fatalf("enabled telemetry allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestTracerSamplingIsDeterministicByOrdinal(t *testing.T) {
	tr := NewTracer(1024)
	tr.SetStride(EvTLBHit, 4)
	for i := 0; i < 16; i++ {
		tr.SetNow(uint64(i))
		tr.Emit(EvTLBHit, 1, LevelL1, uint64(i), 0)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (stride 4 over 16)", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(i * 4); ev.Ref != want {
			t.Fatalf("event %d at ref %d, want %d", i, ev.Ref, want)
		}
	}
	if tr.Seen(EvTLBHit) != 16 {
		t.Fatalf("Seen = %d, want 16 (sampling must not hide totals)", tr.Seen(EvTLBHit))
	}
}

func TestTracerRingWrapKeepsTail(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.SetNow(uint64(i))
		tr.Emit(EvEvict, 0, LevelL2, uint64(i), 0)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Ref != want {
			t.Fatalf("ring slot %d has ref %d, want %d (oldest-first tail)", i, ev.Ref, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
}

func TestHistBucketsAndMerge(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(1 << 40)
	if h.Count != 5 || h.Max != 1<<40 || h.Sum != 6+1<<40 {
		t.Fatalf("bad summary: count=%d max=%d sum=%d", h.Count, h.Max, h.Sum)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[41] != 1 {
		t.Fatalf("bad buckets: %v", h.Buckets[:4])
	}
	var m Hist
	m.Merge(&h)
	m.Merge(&h)
	if m.Count != 10 || m.Buckets[2] != 4 || m.Max != 1<<40 {
		t.Fatalf("bad merge: count=%d b2=%d max=%d", m.Count, m.Buckets[2], m.Max)
	}
}

// TestHistSnapshotJSON: a snapshot is a copy that later observations
// leave alone, and its JSON trims the trailing zero buckets.
func TestHistSnapshotJSON(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(5)
	snap := h.Snapshot()
	h.Observe(1 << 40)
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"count":2,"sum":5,"max":5,"buckets":[1,0,0,1]}`; string(b) != want {
		t.Fatalf("snapshot JSON = %s, want %s", b, want)
	}
}

func TestSpansSequenceAndPhaseHook(t *testing.T) {
	var sp Spans
	var phases []string
	sp.OnPhase(func(name string) { phases = append(phases, name) })
	sp.Begin("build", 0)
	sp.Begin("warmup", 0)
	sp.Begin("simulate", 2000)
	sp.End(22000)
	all := sp.All()
	if len(all) != 3 {
		t.Fatalf("got %d spans, want 3", len(all))
	}
	want := []Span{
		{Name: "build", StartRef: 0, EndRef: 0},
		{Name: "warmup", StartRef: 0, EndRef: 2000},
		{Name: "simulate", StartRef: 2000, EndRef: 22000},
	}
	for i, sp := range all {
		if sp.Name != want[i].Name || sp.StartRef != want[i].StartRef || sp.EndRef != want[i].EndRef {
			t.Fatalf("span %d = %+v, want %+v", i, sp, want[i])
		}
		if sp.Wall < 0 {
			t.Fatalf("span %d has negative wall %v", i, sp.Wall)
		}
	}
	if len(phases) != 3 || phases[2] != "simulate" {
		t.Fatalf("phase hook saw %v", phases)
	}
	sp.End(99999) // double End is a no-op
	if len(sp.All()) != 3 {
		t.Fatal("End without open span must not add a span")
	}
}

func TestSinkHistogramsAccumulate(t *testing.T) {
	s := NewSink(nil, 1)
	s.Fill(100, 1)
	s.Fill(104, 4)
	s.Walk(100, 24)
	s.Walk(104, 48)
	s.Evict(LevelL1, 100, 512)
	if s.CoalesceLen.Count != 2 || s.CoalesceLen.Sum != 5 {
		t.Fatalf("coalesce hist: %+v", s.CoalesceLen)
	}
	if s.WalkCycles.Count != 2 || s.WalkCycles.Max != 48 {
		t.Fatalf("walk hist: %+v", s.WalkCycles)
	}
	if s.EntryLife.Count != 1 || s.EntryLife.Sum != 512 {
		t.Fatalf("life hist: %+v", s.EntryLife)
	}
}

func TestWriteChromeProducesValidTraceEvents(t *testing.T) {
	tr := NewTracer(16)
	tr.SetNow(7)
	tr.Emit(EvCoalesce, 1, LevelNone, 4096, 4)
	tr.SetNow(9)
	tr.Emit(EvEvict, 1, LevelL2, 4096, 33)

	var ts TraceSet
	ts.Add(JobTrace{
		Label:   "bench/mcf/ths-on",
		Threads: []string{"os", "colt-all"},
		Spans:   []Span{{Name: "simulate", StartRef: 2000, EndRef: 22000, Wall: time.Millisecond}},
		Events:  tr.Events(),
	})
	ts.Add(JobTrace{Label: "bench/astar/ths-on", Threads: []string{"os"}})

	var buf bytes.Buffer
	if err := ts.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	// Required Chrome trace-event keys on every row.
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, ev)
			}
		}
	}
	// pid assignment is by sorted label: astar < mcf.
	var astarPID, mcfPID float64
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			name := ev["args"].(map[string]any)["name"].(string)
			if strings.Contains(name, "astar") {
				astarPID = ev["pid"].(float64)
			}
			if strings.Contains(name, "mcf") {
				mcfPID = ev["pid"].(float64)
			}
		}
	}
	if astarPID != 1 || mcfPID != 2 {
		t.Fatalf("pids not label-sorted: astar=%v mcf=%v", astarPID, mcfPID)
	}
	// The span must be a complete event with a duration.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "simulate" {
			found = true
			if ev["dur"].(float64) != 20000 {
				t.Fatalf("span dur = %v, want 20000", ev["dur"])
			}
			if ev["ts"].(float64) != 2000 {
				t.Fatalf("span ts = %v, want 2000", ev["ts"])
			}
		}
	}
	if !found {
		t.Fatal("no complete-span event in output")
	}

	// Determinism: rendering again (jobs added in any order) is byte-identical.
	var ts2 TraceSet
	ts2.Add(JobTrace{Label: "bench/astar/ths-on", Threads: []string{"os"}})
	ts2.Add(JobTrace{
		Label:   "bench/mcf/ths-on",
		Threads: []string{"os", "colt-all"},
		Spans:   []Span{{Name: "simulate", StartRef: 2000, EndRef: 22000, Wall: time.Millisecond}},
		Events:  tr.Events(),
	})
	var buf2 bytes.Buffer
	if err := ts2.WriteChrome(&buf2); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("trace output depends on Add order; must be label-sorted")
	}
}

func TestReporterLines(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter(&buf)
	r.AddJobs(2)
	r.Phase("bench/mcf/ths-on", "simulate")
	r.Done("bench/mcf/ths-on", true)
	r.Done("bench/astar/ths-on", false)
	out := buf.String()
	if !strings.Contains(out, "[1/2] bench/mcf/ths-on (simulate)") {
		t.Fatalf("missing first progress line:\n%s", out)
	}
	if !strings.Contains(out, "[2/2] bench/astar/ths-on FAILED  failures=1") {
		t.Fatalf("missing failure line:\n%s", out)
	}
	if d, tot, f := r.Counts(); d != 2 || tot != 2 || f != 1 {
		t.Fatalf("counts = %d/%d failed %d", d, tot, f)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EvTLBHit; k < numEventKinds; k++ {
		if s := k.String(); s == "" || s == "event(?)" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if LevelName(LevelL1) != "l1" || LevelName(LevelSup) != "sup" || LevelName(LevelNone) != "os" {
		t.Fatal("level names wrong")
	}
}

// TestReporterHookReceivesOrderedEvents: the hook sees every progress
// event with contiguous sequence numbers and running counters — the
// contract SSE streams replay against.
func TestReporterHookReceivesOrderedEvents(t *testing.T) {
	r := NewReporter(nil) // nil writer: hook-only reporter
	var got []ProgressEvent
	r.SetHook(func(ev ProgressEvent) { got = append(got, ev) })
	r.AddJobs(2)
	r.Phase("bench/mcf/ths-on", "build")
	r.Phase("bench/mcf/ths-on", "simulate")
	r.Done("bench/mcf/ths-on", true)
	r.Done("bench/gups/ths-on", false)
	if len(got) != 5 {
		t.Fatalf("hook saw %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if got[0].Kind != ProgressJobsAdded || got[0].Total != 2 {
		t.Errorf("event 0 = %+v, want jobs-added with total 2", got[0])
	}
	if got[2].Kind != ProgressPhase || got[2].Phase != "simulate" {
		t.Errorf("event 2 = %+v, want phase simulate", got[2])
	}
	if got[3].Kind != ProgressDone || !got[3].OK || got[3].Phase != "simulate" || got[3].Done != 1 {
		t.Errorf("event 3 = %+v, want ok done in phase simulate with done=1", got[3])
	}
	if got[4].Kind != ProgressDone || got[4].OK || got[4].Failed != 1 || got[4].Done != 2 {
		t.Errorf("event 4 = %+v, want failed done with failed=1 done=2", got[4])
	}
	// Nil reporters and removed hooks stay safe.
	var nilR *Reporter
	nilR.SetHook(func(ProgressEvent) { t.Error("nil reporter delivered an event") })
	nilR.Done("x", true)
	r.SetHook(nil)
	r.Done("bench/x/y", true)
}

// TestReporterNilWriterPrintsNothing: a hook-only reporter must never
// write (it would panic on the nil writer if it tried).
func TestReporterNilWriterPrintsNothing(t *testing.T) {
	r := NewReporter(nil)
	r.AddJobs(1)
	r.Phase("job", "build")
	r.Done("job", true)
	if d, tot, f := r.Counts(); d != 1 || tot != 1 || f != 0 {
		t.Fatalf("Counts = (%d,%d,%d), want (1,1,0)", d, tot, f)
	}
}
