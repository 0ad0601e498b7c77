package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/telemetry"
)

// registryPins holds the SHA-256 of every registry entry's stable
// report and rendered text in each registry configuration. Regenerate
// after an intended change with
//
//	go test ./internal/experiments -run TestTextMatchesRun -update
//
// or `make golden-update`, and review the changed names.
var registryPins = filepath.Join("testdata", "goldens", "registry.sha256")

// registryConfig is one configuration whose registry bytes are pinned.
type registryConfig struct {
	name string
	opts Options
}

// registryConfigs are the pinned configurations: the golden options
// (experiments -exp all -quick -refs 20000), and a degraded run
// (-exp all -quick -refs 2000 -faults trace-corrupt=0.0002 -retries 1)
// in which every experiment keeps survivors while prefetch, subblock,
// supsize and l2size each record a failure under their own kind.
func registryConfigs(t *testing.T) []registryConfig {
	t.Helper()
	faulty := QuickOptions()
	faulty.Refs = 2_000
	faulty.Warmup = 200
	spec, err := fault.ParseSpec("trace-corrupt=0.0002")
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = spec
	faulty.Retries = 1
	return []registryConfig{{"golden", GoldenOptions()}, {"faults", faulty}}
}

// TestTextMatchesRun: every entry's Text schedules the jobs its Run
// does and emits the same report bytes, and renders a table. The text
// side runs one SharedRegistry in display order, so its fig21 reuses
// fig18's evaluation — scheduling nothing — and must still report
// exactly what the independent fig21 does. Every report and every
// text must also match its pinned SHA-256 in registryPins.
func TestTextMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	var got []string // "<sha256>  <config>/<entry>.<json|txt>", in order
	for _, cfg := range registryConfigs(t) {
		t.Run(cfg.name, func(t *testing.T) {
			// report runs fn with a fresh collector and progress
			// reporter and returns the stable report and the number of
			// jobs scheduled.
			report := func(name string, fn func(Options) error) ([]byte, int) {
				t.Helper()
				o := cfg.opts
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
				prefix := cfg.name + "/" + e.Name
				got = append(got,
					fmt.Sprintf("%x  %s.json", sha256.Sum256(runReport), prefix),
					fmt.Sprintf("%x  %s.txt", sha256.Sum256([]byte(text)), prefix))
			}
		})
	}
	if t.Failed() {
		return
	}
	if *updateGoldens {
		header := "# SHA-256 of every registry entry's stable report (.json) and\n" +
			"# rendered text (.txt), checked by TestTextMatchesRun. golden: the\n" +
			"# options of experiments -exp all -quick -refs 20000; faults: the\n" +
			"# options of -exp all -quick -refs 2000 -faults trace-corrupt=0.0002\n" +
			"# -retries 1. Regenerate with make golden-update.\n"
		if err := os.WriteFile(registryPins, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d sums)", registryPins, len(got))
		return
	}
	want, err := readPins(registryPins)
	if err != nil {
		t.Fatalf("reading pins (regenerate with -update): %v", err)
	}
	seen := map[string]bool{}
	for _, line := range got {
		sum, name, _ := strings.Cut(line, "  ")
		seen[name] = true
		switch pinned, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no pinned sum (re-run with -update)", name)
		case pinned != sum:
			t.Errorf("%s: sha256 %s, pinned %s (re-run with -update if intended)", name, sum, pinned)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: pinned but no longer produced (re-run with -update)", name)
		}
	}
}

// readPins parses a "<sha256>  <name>" file, skipping # comments.
func readPins(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		pins[name] = sum
	}
	return pins, sc.Err()
}
