package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/metrics"
)

// The golden-run regression harness: a fast experiment subset runs at
// GoldenOptions and its stable metrics JSON is byte-compared against
// checked-in files under testdata/goldens. Any change to simulator
// behavior — intended or not — shows up as a structural diff here
// before it reaches a full run. Regenerate after intended changes with
//
//	go test ./internal/experiments -run TestGoldens -update
//
// or `make golden-update`.

var updateGoldens = flag.Bool("update", false, "rewrite the golden metrics JSON files")

// goldenExperiments is the golden subset: Table 1 (the real-system
// probe), Figure 18 (the standard four-variant evaluation, the paper's
// headline result), and Figure 20 (the associativity study). Together
// they exercise every TLB policy, all five system setups, and the
// contiguity scanner at a runtime small enough for every merge.
// fig18-churn reruns Figure 18 with mid-run churn on, so the OS
// activity DefaultOptions injects between references (shootdowns,
// churn bursts) is pinned byte for byte too. tweak adjusts
// GoldenOptions for one entry (nil: as is).
var goldenExperiments = []struct {
	name  string
	tweak func(*Options)
	run   func(opts Options) error
}{
	{"table1", nil, func(o Options) error { _, err := Table1(o); return err }},
	{"fig18", nil, runFig18},
	{"fig20", nil, func(o Options) error { _, err := Figure20(o); return err }},
	{"fig18-churn", func(o *Options) { o.MidRunChurn = true }, runFig18},
}

func runFig18(o Options) error { _, err := RunStandardEvaluation(o); return err }

// goldenReport runs one golden experiment and returns its stable JSON.
func goldenReport(name string, tweak func(*Options), run func(Options) error, parallel int) ([]byte, error) {
	opts := GoldenOptions()
	if tweak != nil {
		tweak(&opts)
	}
	opts.Parallel = parallel
	opts.Metrics = metrics.NewCollector()
	if err := run(opts); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if opts.Metrics.Len() == 0 {
		return nil, fmt.Errorf("%s: no metrics records collected", name)
	}
	return opts.Metrics.Report(name, opts.Snapshot()).StableJSON()
}

func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate full reference streams")
	}
	for _, g := range goldenExperiments {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			got, err := goldenReport(g.name, g.tweak, g.run, 1)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "goldens", g.name+".json")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				diffs := metrics.Diff(got, want)
				t.Errorf("%s diverges from golden (%d fields differ; re-run with -update if intended):\n%s",
					g.name, len(diffs), strings.Join(diffs, "\n"))
			}

			// The same run fanned out across eight workers must produce
			// the identical report: scheduling order must never leak
			// into results.
			wide, err := goldenReport(g.name, g.tweak, g.run, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wide) {
				t.Errorf("%s report differs between parallel=1 and parallel=8:\n%s",
					g.name, strings.Join(metrics.Diff(wide, got), "\n"))
			}
		})
	}
}

// histReport runs Table 1 with telemetry histograms embedded and
// returns the stable report JSON.
func histReport(parallel int) ([]byte, error) {
	opts := GoldenOptions()
	opts.Parallel = parallel
	opts.Histograms = true
	opts.Metrics = metrics.NewCollector()
	if _, err := Table1(opts); err != nil {
		return nil, fmt.Errorf("table1-hist: %w", err)
	}
	return opts.Metrics.Report("table1-hist", opts.Snapshot()).StableJSON()
}

// TestGoldenHistograms extends the golden harness to telemetry:
// Table 1 with Histograms on is byte-compared against its own golden,
// and — like every report — must be identical at parallel widths 1 and
// 8. Histogram buckets, spans, and entry lifetimes are all functions
// of the per-job reference stream, so worker count must not leak in.
func TestGoldenHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate full reference streams")
	}
	got, err := histReport(1)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded telemetry must actually be there — an empty-schema
	// pass would make this golden vacuous.
	for _, key := range []string{`"hists"`, `"spans"`, `"coalesce_len"`, `"entry_lifetime"`, `"walk_depth"`, `"buckets"`} {
		if !strings.Contains(string(got), key) {
			t.Fatalf("histogram report lacks %s:\n%.2000s", key, got)
		}
	}
	path := filepath.Join("testdata", "goldens", "table1-hist.json")
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		diffs := metrics.Diff(got, want)
		t.Errorf("table1-hist diverges from golden (%d fields differ; re-run with -update if intended):\n%s",
			len(diffs), strings.Join(diffs, "\n"))
	}
	wide, err := histReport(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wide) {
		t.Errorf("histogram report differs between parallel=1 and parallel=8:\n%s",
			strings.Join(metrics.Diff(wide, got), "\n"))
	}
}
