package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"colt/internal/telemetry"
)

func sampleRecord(bench string) Record {
	return Record{
		Kind:         KindBench,
		Bench:        bench,
		Setup:        "THS on, normal compaction",
		Seed:         0xC017,
		Instructions: 1_000_000,
		Variants: []Variant{
			{
				Name: "baseline", Policy: "baseline",
				Accesses: 500_000, L1Misses: 40_000, L2Misses: 9_000,
				Walks: 9_000, WalkCycles: 270_000,
				L1:     LevelStats{Lookups: 500_000, Hits: 460_000, Misses: 40_000, Fills: 40_000, HitRate: 0.92, TranslationsPerFill: 1},
				L2:     LevelStats{Lookups: 40_000, Hits: 31_000, Misses: 9_000, Fills: 9_000, HitRate: 0.775, TranslationsPerFill: 1},
				L1MPMI: 40_000, L2MPMI: 9_000,
				ModelCycles: 1_000_000,
			},
		},
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(10, 4); got != 2.5 {
		t.Errorf("Ratio(10,4) = %v", got)
	}
	if got := Ratio(10, 0); got != 0 {
		t.Errorf("Ratio(10,0) = %v, want 0", got)
	}
	if got := Ratio(0, 0); got != 0 {
		t.Errorf("Ratio(0,0) = %v, want 0", got)
	}
}

// TestStableJSONSortedAndStable: records collected in any order yield
// identical bytes, and every object's keys come out sorted.
func TestStableJSONSortedAndStable(t *testing.T) {
	opts := Options{Frames: 1 << 15, Scale: 0.05, Refs: 60_000, Seed: 0xC017}

	c1 := NewCollector()
	c1.Add(sampleRecord("Mcf"), time.Millisecond)
	c1.Add(sampleRecord("Astar"), time.Millisecond)
	c2 := NewCollector()
	c2.Add(sampleRecord("Astar"), time.Millisecond)
	c2.Add(sampleRecord("Mcf"), time.Millisecond)

	j1, err := c1.Report("fig18", opts).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c2.Report("fig18", opts).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("collection order leaked into stable JSON")
	}

	// Keys sorted: "bench" must appear before "kind" in a record object.
	s := string(j1)
	if !strings.Contains(s, `"schema": "colt-metrics/1"`) {
		t.Errorf("schema missing:\n%s", s)
	}
	bi, ki := strings.Index(s, `"bench"`), strings.Index(s, `"kind"`)
	if bi == -1 || ki == -1 || bi > ki {
		t.Errorf("keys not sorted: bench@%d kind@%d", bi, ki)
	}
	// Numeric values survive the normalization round-trip exactly.
	if !strings.Contains(s, `"hit_rate": 0.775`) {
		t.Errorf("float literal not preserved:\n%s", s)
	}
}

func TestStableJSONRejectsNonFinite(t *testing.T) {
	for name, poison := range map[string]func(*Record){
		"speedup-inf":  func(r *Record) { r.Variants[0].SpeedupPct = math.Inf(1) },
		"hit-rate-nan": func(r *Record) { r.Variants[0].L1.HitRate = math.NaN() },
		"rejected-nan": func(r *Record) { r.Variants[0].SubblockRejectedPct = math.NaN() },
	} {
		rec := sampleRecord("Mcf")
		poison(&rec)
		c := NewCollector()
		c.Add(rec, 0)
		_, err := c.Report("fig18", Options{}).StableJSON()
		if err == nil {
			t.Errorf("%s: non-finite value serialized without error", name)
			continue
		}
		if !strings.Contains(err.Error(), "Mcf") {
			t.Errorf("%s: error %q does not name the record", name, err)
		}
	}
}

func TestReportEmptyRecords(t *testing.T) {
	c := NewCollector()
	out, err := c.Report("empty", Options{}).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"records": []`) {
		t.Errorf("empty report should serialize records as []:\n%s", out)
	}
}

func TestDiff(t *testing.T) {
	c := NewCollector()
	c.Add(sampleRecord("Mcf"), 0)
	base, err := c.Report("fig18", Options{Refs: 100}).StableJSON()
	if err != nil {
		t.Fatal(err)
	}

	if d := Diff(base, base); d != nil {
		t.Errorf("Diff of identical documents = %v", d)
	}

	changed := NewCollector()
	rec := sampleRecord("Mcf")
	rec.Variants[0].L2Misses = 9_001
	changed.Add(rec, 0)
	mod, err := changed.Report("fig18", Options{Refs: 100}).StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(mod, base)
	if len(d) == 0 {
		t.Fatal("Diff missed a changed field")
	}
	joined := strings.Join(d, "\n")
	if !strings.Contains(joined, "l2_misses") || !strings.Contains(joined, "9001") || !strings.Contains(joined, "9000") {
		t.Errorf("diff lines do not name the field and both values:\n%s", joined)
	}
}

func TestCollectorMergeAndTiming(t *testing.T) {
	a := NewCollector()
	a.Add(sampleRecord("Mcf"), 5*time.Millisecond)
	a.ObserveJob(0, "bench/Mcf/ths-on", 5*time.Millisecond)

	b := NewCollector()
	b.Merge(a)
	b.Merge(nil) // no-op
	b.Merge(b)   // self-merge is a no-op, not a deadlock or duplication
	if b.Len() != 1 {
		t.Fatalf("merged collector has %d records", b.Len())
	}

	out, err := b.TimingJSON("fig18")
	if err != nil {
		t.Fatal(err)
	}
	var tr TimingReport
	if err := json.Unmarshal(out, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.SchedJobs != 1 || len(tr.Records) != 1 || tr.Records[0].Bench != "Mcf" {
		t.Errorf("timing report %+v", tr)
	}
	if tr.Records[0].WallMS != 5 {
		t.Errorf("wall_ms = %v, want 5", tr.Records[0].WallMS)
	}
	if len(tr.Sched) != 1 || tr.Sched[0].Label != "bench/Mcf/ths-on" || tr.Sched[0].WallMS != 5 {
		t.Errorf("sched timings did not carry the job label through Merge: %+v", tr.Sched)
	}
}

// TestHistFrom: a record embeds a telemetry histogram's Snapshot,
// which drops empty histograms (so omitempty elides them), and whose
// JSON trims trailing zero buckets and preserves the counters.
func TestHistFrom(t *testing.T) {
	var none *telemetry.Hist
	if none.Snapshot() != nil {
		t.Error("Snapshot of a nil histogram != nil")
	}
	var empty telemetry.Hist
	if empty.Snapshot() != nil {
		t.Error("Snapshot of an empty histogram != nil")
	}
	var h telemetry.Hist
	h.Observe(0)
	h.Observe(5) // bucket bits.Len64(5) = 3
	b, err := json.Marshal(RecordHists{ContigRun: h.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ContigRun *struct {
			Count, Sum, Max uint64
			Buckets         []uint64
		} `json:"contig_run"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ContigRun == nil || got.ContigRun.Count != 2 || got.ContigRun.Sum != 5 || got.ContigRun.Max != 5 {
		t.Fatalf("snapshot counters: %s", b)
	}
	if len(got.ContigRun.Buckets) != 4 || got.ContigRun.Buckets[0] != 1 || got.ContigRun.Buckets[3] != 1 {
		t.Errorf("snapshot buckets not trimmed to last non-zero: %v", got.ContigRun.Buckets)
	}
}

// TestSpansFrom: a record embeds telemetry spans whose JSON keeps only
// simulated time (reference indices) — wall-clock never reaches it.
func TestSpansFrom(t *testing.T) {
	if b, err := json.Marshal(Record{}); err != nil || strings.Contains(string(b), "spans") {
		t.Errorf("a record without spans encodes them: %s (%v)", b, err)
	}
	spans := []telemetry.Span{
		{Name: "warmup", StartRef: 0, EndRef: 2000, Wall: 7 * time.Second},
		{Name: "simulate", StartRef: 2000, EndRef: 22000, Wall: time.Minute},
	}
	b, err := json.Marshal(Record{Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Spans []map[string]any }
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != 2 || got.Spans[1]["name"] != "simulate" ||
		got.Spans[1]["start_ref"] != 2000.0 || got.Spans[1]["end_ref"] != 22000.0 {
		t.Fatalf("span JSON: %s", b)
	}
	if strings.Contains(string(b), "wall") || strings.Contains(string(b), "Wall") {
		t.Errorf("span JSON leaks wall-clock: %s", b)
	}
}

// TestAddSpansFlowsIntoTimingSidecar: spans registered for a record
// surface as that record's phases in the wall-clock sidecar.
func TestAddSpansFlowsIntoTimingSidecar(t *testing.T) {
	c := NewCollector()
	c.Add(sampleRecord("Mcf"), time.Millisecond)
	c.AddSpans(KindBench, "Mcf", "THS on, normal compaction", []telemetry.Span{
		{Name: "simulate", StartRef: 2000, EndRef: 22000, Wall: 3 * time.Millisecond},
	})
	out, err := c.TimingJSON("fig18")
	if err != nil {
		t.Fatal(err)
	}
	var tr TimingReport
	if err := json.Unmarshal(out, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || len(tr.Records[0].Phases) != 1 {
		t.Fatalf("phases missing from timing sidecar: %+v", tr.Records)
	}
	p := tr.Records[0].Phases[0]
	if p.Name != "simulate" || p.StartRef != 2000 || p.EndRef != 22000 || p.WallMS != 3 {
		t.Errorf("phase timing %+v", p)
	}
}
