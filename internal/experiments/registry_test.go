package experiments

import (
	"bytes"
	"strings"
	"testing"

	"colt/internal/metrics"
	"colt/internal/telemetry"
)

// TestTextMatchesRun: every entry's Text schedules the jobs its Run
// does and emits the same report bytes, and renders a table. The text
// side runs one SharedRegistry in display order, so its fig21 reuses
// fig18's evaluation — scheduling nothing — and must still report
// exactly what the independent fig21 does.
func TestTextMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	opts := QuickOptions()
	opts.Refs = 2_000
	opts.Warmup = 200
	// report runs fn with a fresh collector and progress reporter and
	// returns the stable report and the number of jobs scheduled.
	report := func(name string, fn func(Options) error) ([]byte, int) {
		t.Helper()
		o := opts
		o.Metrics = metrics.NewCollector()
		o.Progress = telemetry.NewReporter(nil)
		if err := fn(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := o.Metrics.Report(name, o.Snapshot()).StableJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, jobs, _ := o.Progress.Counts()
		return b, jobs
	}
	shared := SharedRegistry()
	for i, e := range Registry() {
		runReport, runJobs := report(e.Name, e.Run)
		var text string
		textReport, textJobs := report(e.Name, func(o Options) (err error) {
			text, err = shared[i].Text(o)
			return err
		})
		if !bytes.Equal(runReport, textReport) {
			t.Errorf("%s: Text's report differs from Run's:\n%s", e.Name,
				strings.Join(metrics.Diff(textReport, runReport), "\n"))
		}
		wantJobs := runJobs
		if e.Name == "fig21" {
			wantJobs = 0
		}
		if textJobs != wantJobs {
			t.Errorf("%s: Text scheduled %d jobs, want %d", e.Name, textJobs, wantJobs)
		}
		if !strings.HasSuffix(text, "\n") || strings.Count(text, "\n") < 3 {
			t.Errorf("%s: Text rendered no table: %q", e.Name, text)
		}
	}
}
