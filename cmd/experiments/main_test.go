package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/experiments"
	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/telemetry"
	"colt/internal/workload"
)

// TestUnknownExperimentError guards the CLI contract: an unknown -exp
// must produce an error (non-zero exit in main) whose message names the
// bad input and lists every valid experiment.
func TestUnknownExperimentError(t *testing.T) {
	err := run("no-such-experiment", experiments.QuickOptions(), "", "")
	if err == nil {
		t.Fatal("run with unknown experiment returned nil error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-experiment"`) {
		t.Errorf("error %q does not quote the unknown name", msg)
	}
	for _, want := range []string{"table1", "fig18", "virt", "timeline", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not list valid experiment %q", msg, want)
		}
	}
}

// TestRegistryNamesUnique: every name the CLI accepts — the shared
// registry plus calibrate — is distinct, runnable as text, and none
// shadows the built-in pseudo-experiments.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range append(experiments.SharedRegistry(), calibrateEntry) {
		if e.Name == "all" || e.Name == "list" {
			t.Errorf("registry entry %q shadows a built-in pseudo-experiment", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate registry entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Text == nil {
			t.Errorf("registry entry %q has no Text function", e.Name)
		}
	}
}

// TestKnownExperimentRuns smoke-tests the registry dispatch path with
// the cheapest real experiment.
func TestKnownExperimentRuns(t *testing.T) {
	opts := experiments.QuickOptions()
	opts.Refs = 5_000
	opts.Warmup = 500
	if err := run("timeline", opts, "", ""); err != nil {
		t.Fatalf("run(timeline): %v", err)
	}
}

// TestCalibrateRendersEveryBenchmark: the CLI-only diagnostic prints a
// header and one row per benchmark, in workload order.
func TestCalibrateRendersEveryBenchmark(t *testing.T) {
	opts := experiments.QuickOptions()
	opts.Refs = 2_000
	opts.Warmup = 200
	text, err := calibrateEntry.Text(opts)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	names := workload.Names()
	if len(lines) != 1+len(names) {
		t.Fatalf("calibrate printed %d lines, want a header and %d rows:\n%s", len(lines), len(names), text)
	}
	for i, name := range names {
		if fields := strings.Fields(lines[1+i]); len(fields) == 0 || fields[0] != name {
			t.Errorf("row %d = %q, want benchmark %s", i, lines[1+i], name)
		}
	}
}

// TestOutDirDeterministic guards the -out contract: the metrics report
// is byte-identical at every -parallel width, matches the checked-in
// golden for the same configuration, and the timing sidecar exists.
func TestOutDirDeterministic(t *testing.T) {
	opts := experiments.GoldenOptions()
	dirs := map[int]string{1: t.TempDir(), 8: t.TempDir()}
	outputs := map[int][]byte{}
	for _, width := range []int{1, 8} {
		opts.Parallel = width
		if err := run("fig18", opts, dirs[width], ""); err != nil {
			t.Fatalf("run(fig18, parallel=%d): %v", width, err)
		}
		data, err := os.ReadFile(filepath.Join(dirs[width], "fig18.json"))
		if err != nil {
			t.Fatalf("report missing at parallel=%d: %v", width, err)
		}
		outputs[width] = data
		if _, err := os.Stat(filepath.Join(dirs[width], "fig18.timing.json")); err != nil {
			t.Errorf("timing sidecar missing at parallel=%d: %v", width, err)
		}
	}
	if !bytes.Equal(outputs[1], outputs[8]) {
		t.Errorf("report differs between -parallel 1 and -parallel 8:\n%s",
			strings.Join(metrics.Diff(outputs[8], outputs[1]), "\n"))
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "goldens", "fig18.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(outputs[1], golden) {
		t.Errorf("CLI -out report does not match checked-in golden:\n%s",
			strings.Join(metrics.Diff(outputs[1], golden), "\n"))
	}
}

// TestFaultedRunRendersPartialReport guards the -faults contract: a
// degraded run exits zero, and its report carries both surviving
// records and a structured failures section.
func TestFaultedRunRendersPartialReport(t *testing.T) {
	spec, err := fault.ParseSpec("trace-corrupt=5e-5")
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.GoldenOptions()
	opts.Faults = spec
	opts.Retries = 1
	opts.CheckInvariants = true
	dir := t.TempDir()
	if err := run("fig18", opts, dir, ""); err != nil {
		t.Fatalf("faulted run failed outright: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig18.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"failures"`, `"injected": true`, `"fault_spec": "trace-corrupt=5e-05"`, `"records"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("faulted report lacks %s", want)
		}
	}
	// The pool's observer times a job's whole retry loop, so the
	// timing sidecar holds one Sched entry per job however many
	// attempts it took.
	var report metrics.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	retried := false
	for _, f := range report.Failures {
		retried = retried || f.Attempts > 1
	}
	if !retried {
		t.Fatalf("no failed job was retried: %+v", report.Failures)
	}
	data, err = os.ReadFile(filepath.Join(dir, "fig18.timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	var timing metrics.TimingReport
	if err := json.Unmarshal(data, &timing); err != nil {
		t.Fatal(err)
	}
	if jobs := len(workload.All()); len(timing.Sched) != jobs || timing.SchedJobs != jobs {
		t.Errorf("timing sidecar has %d Sched entries (sched_jobs %d), want one per job: %d",
			len(timing.Sched), timing.SchedJobs, jobs)
	}
}

// TestAllSimulatesStandardEvaluationOnce: fig18 and fig21 report one
// standard evaluation, and a CLI -exp all run simulates it once. The
// run schedules exactly the jobs of every independent registry entry
// but fig21.
func TestAllSimulatesStandardEvaluationOnce(t *testing.T) {
	opts := experiments.QuickOptions()
	opts.Refs = 2_000
	opts.Warmup = 200
	jobs := func(fn func(experiments.Options) error) int {
		o := opts
		o.Progress = telemetry.NewReporter(nil)
		if err := fn(o); err != nil {
			t.Fatal(err)
		}
		_, total, _ := o.Progress.Counts()
		return total
	}
	want := 0
	for _, e := range experiments.Registry() {
		if e.Name != "fig21" {
			want += jobs(e.Run)
		}
	}
	got := jobs(func(o experiments.Options) error { return run("all", o, "", "") })
	if got != want {
		t.Fatalf("-exp all scheduled %d jobs, want %d (the standard evaluation once)", got, want)
	}
}

// TestTraceEventsOutput guards the -trace-events contract: the run
// writes one valid Chrome trace-event file per experiment, and -hist
// embeds histogram objects into the -out report.
func TestTraceEventsOutput(t *testing.T) {
	opts := experiments.GoldenOptions()
	opts.Histograms = true
	outDir, traceDir := t.TempDir(), t.TempDir()
	if err := run("table1", opts, outDir, traceDir); err != nil {
		t.Fatalf("run(table1): %v", err)
	}
	data, err := os.ReadFile(filepath.Join(traceDir, "table1.trace.json"))
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
	for _, key := range []string{"ph", "pid", "name"} {
		if _, ok := doc.TraceEvents[0][key]; !ok {
			t.Errorf("first trace event lacks required key %q: %v", key, doc.TraceEvents[0])
		}
	}
	report, err := os.ReadFile(filepath.Join(outDir, "table1.json"))
	if err != nil {
		t.Fatalf("report missing: %v", err)
	}
	for _, want := range []string{`"hists"`, `"spans"`, `"histograms": true`} {
		if !strings.Contains(string(report), want) {
			t.Errorf("-hist report lacks %s", want)
		}
	}
}

// TestBadFaultSpecNamesSites guards the -faults parse contract relied
// on by main: the error must name every valid site.
func TestBadFaultSpecNamesSites(t *testing.T) {
	_, err := fault.ParseSpec("bogus-site=0.5")
	if err == nil {
		t.Fatal("ParseSpec accepted an unknown site")
	}
	for _, site := range fault.Sites() {
		if !strings.Contains(err.Error(), string(site)) {
			t.Errorf("parse error %q does not name site %s", err, site)
		}
	}
}
