package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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

// TestStableJSONRejectsNonFinite pins the full error for a non-finite
// float: the record, the variant, contiguity or timeline point, and
// the field. Within a record the contiguity is checked first, then the
// variants in order, then the timeline points; within one of those,
// the first non-finite field by name is the one reported.
func TestStableJSONRejectsNonFinite(t *testing.T) {
	const rec = "records[bench/Mcf/THS on, normal compaction]"
	const tail = " (non-finite values must not reach JSON output)"
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name   string
		poison func(*Record)
		want   string
	}{
		{"speedup-inf", func(r *Record) { r.Variants[0].SpeedupPct = inf },
			rec + ".variants[baseline].speedup_pct is +Inf"},
		{"hit-rate-nan", func(r *Record) { r.Variants[0].L1.HitRate = nan },
			rec + ".variants[baseline].l1.hit_rate is NaN"},
		{"rejected-nan", func(r *Record) { r.Variants[0].SubblockRejectedPct = nan },
			rec + ".variants[baseline].subblock_rejected_pct is NaN"},
		{"two-in-variant", func(r *Record) {
			r.Variants[0].SpeedupPct = inf
			r.Variants[0].L2MPMI = nan
		}, rec + ".variants[baseline].l2_mpmi is NaN"},
		{"dot-before-underscore", func(r *Record) {
			r.Variants[0].L1MissRate = nan
			r.Variants[0].L1.TranslationsPerFill = -inf
		}, rec + ".variants[baseline].l1.translations_per_fill is -Inf"},
		{"sup-last", func(r *Record) {
			r.Variants[0].Sup.TranslationsPerFill = inf
			r.Variants[0].ModelCycles = nan
		}, rec + ".variants[baseline].model_cycles is NaN"},
		{"second-variant", func(r *Record) {
			v := r.Variants[0]
			v.Name = "colt"
			v.Sup.HitRate = nan
			r.Variants = append(r.Variants, v)
		}, rec + ".variants[colt].sup.hit_rate is NaN"},
		{"contiguity-first", func(r *Record) {
			r.Variants[0].SpeedupPct = inf
			r.Contig = &Contiguity{PageAvg: nan, RunAvg: inf, FracOver512: 0.5}
		}, rec + ".contiguity.page_avg is NaN"},
		{"timeline", func(r *Record) {
			r.Timeline = []TimelinePoint{{PageAvg: 1, RunAvg: 2}, {PageAvg: 1, RunAvg: -inf}}
		}, rec + ".timeline[1].run_avg is -Inf"},
	} {
		r := sampleRecord("Mcf")
		c.poison(&r)
		col := NewCollector()
		col.Add(r, 0)
		col.Add(sampleRecord("Astar"), 0)
		_, err := col.Report("fig18", Options{}).StableJSON()
		if want := "metrics: " + c.want + tail; err == nil || err.Error() != want {
			t.Errorf("%s: error %v\nwant %s", c.name, err, want)
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

// reportKeys walks every struct type reachable from t, as encoding/json
// would encode it, and returns the JSON keys any struct declares out
// of ascending order (as "Type: key after previous") and every
// omitempty key. Fields tagged "-" and unexported fields are skipped,
// and so are the fields of a type with its own MarshalJSON, whose
// output the report tests check instead.
func reportKeys(t reflect.Type) (unsorted, optional []string) {
	marshaler := reflect.TypeFor[json.Marshaler]()
	seen := map[reflect.Type]bool{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || seen[t] || t.Implements(marshaler) {
			return
		}
		seen[t] = true
		prev := ""
		for i := range t.NumField() {
			f := t.Field(i)
			tag := f.Tag.Get("json")
			if !f.IsExported() || tag == "-" {
				continue
			}
			if f.Anonymous {
				unsorted = append(unsorted, t.String()+": embedded field "+f.Name+" is not supported")
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "" {
				name = f.Name
			}
			if name <= prev {
				unsorted = append(unsorted, t.String()+": "+name+" after "+prev)
			}
			prev = name
			if strings.Contains(opts, "omitempty") {
				optional = append(optional, name)
			}
			walk(f.Type)
		}
	}
	walk(t)
	return unsorted, optional
}

// TestReportKeysDeclaredSorted guards StableJSON's one pass: every
// struct a report encodes must declare its fields in ascending
// JSON-key order, so encoding/json writes them sorted.
func TestReportKeysDeclaredSorted(t *testing.T) {
	unsorted, _ := reportKeys(reflect.TypeFor[Report]())
	for _, u := range unsorted {
		t.Error(u)
	}
}

// fullReport builds a report with every optional field set: options
// with a fault spec and histograms, records with contiguity, a
// timeline, spans, both histogram sets and a partial-subblock rejected
// share, and failures with every flag, plus strings that need HTML
// and non-ASCII escaping.
func fullReport() *Report {
	hist := func(vs ...uint64) *telemetry.Hist {
		var h telemetry.Hist
		for _, v := range vs {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	rec := sampleRecord("Mcf")
	rec.Contig = &Contiguity{PageAvg: 12.5, RunAvg: 40.25, SuperPages: 3, NonSuperPages: 900, MaxRun: 512, FracOver512: 0.125}
	rec.Timeline = []TimelinePoint{{RefsDone: 0, PageAvg: 1.5, RunAvg: 2, MappedPages: 100, Superpages: 512}, {RefsDone: 2000, PageAvg: 3e-7, RunAvg: 1e21, MappedPages: 90}}
	rec.Spans = []telemetry.Span{{Name: "build", StartRef: 0, EndRef: 0, Wall: time.Second}, {Name: "simulate", StartRef: 200, EndRef: 2200}}
	rec.Hists = &RecordHists{ContigRun: hist(1, 2, 900), WalkDepth: hist(4, 4, 3)}
	v := &rec.Variants[0]
	v.SubblockRejectedPct = 33.3
	v.Sup = LevelStats{Lookups: 7, Hits: 3, Misses: 4, Fills: 4, CoalescedIn: 12, Evictions: 1, Merges: 2, HitRate: 3.0 / 7, TranslationsPerFill: 4}
	v.Hists = &VariantHists{CoalesceLen: hist(1, 8, 8), WalkCycles: hist(0, 230, 1<<40), EntryLife: hist(17)}
	return &Report{
		Schema:     Schema,
		Experiment: "fig18 <quick> & µ",
		Options:    Options{Frames: 1 << 15, Scale: 0.05, ColdScale: 0.5, ChurnOps: 30, Warmup: 200, Refs: 2000, Seed: 0xC017, MidRunChurn: true, FaultSpec: "all=0.01", Histograms: true},
		Records:    []Record{rec},
		Failures: []Failure{
			{Kind: KindBench, Bench: "Astar", Setup: "s", Attempts: 2, Error: "fault: injected <oom> & \"quoted\"\n", Injected: true, TimedOut: true},
			{Kind: KindContig, Bench: "Gups", Setup: "s", Attempts: 1, Error: "context canceled", Canceled: true},
		},
	}
}

// TestStableJSONMatchesNormalizedEncoding requires the one-pass
// StableJSON of a report with every optional field set to equal the
// normalization it replaced: the report marshaled, decoded into an
// untyped tree with exact numbers, and re-encoded with sorted keys,
// which is CanonicalJSON indented. Every omitempty key a report can
// carry must appear in the output.
func TestStableJSONMatchesNormalizedEncoding(t *testing.T) {
	r := fullReport()
	got, err := r.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Indent(&want, canon, "", "  "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("StableJSON differs from the normalized encoding:\n%s\nwant:\n%s", got, want.Bytes())
	}
	_, optional := reportKeys(reflect.TypeFor[Report]())
	for _, key := range append(optional, "buckets") {
		if !bytes.Contains(got, []byte(`"`+key+`": `)) {
			t.Errorf("the full report sets no %q", key)
		}
	}
}
