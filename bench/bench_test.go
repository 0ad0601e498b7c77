package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// serveLayer lists the serving layers' metrics, printed by traced
// serve runs (they are not on the result line, which carries only the
// metrics every workload has). The timeline phases exist only for
// requests that simulated.
var serveLayer = []struct {
	metricDef
	missOnly bool
}{
	{metricDef{"http.submit_p50_ms", "ms"}, false},
	{metricDef{"http.submit_p99_ms", "ms"}, false},
	{metricDef{"http.report_p50_ms", "ms"}, false},
	{metricDef{"http.report_p99_ms", "ms"}, false},
	{metricDef{"http.poll_ms", "ms"}, true},
	{metricDef{"http.polls_per_req", "count"}, false},
	{metricDef{"server.canonicalize_us", "us"}, false},
	{metricDef{"server.cache_get_ms", "ms"}, false},
	{metricDef{"server.journal_p50_ms", "ms"}, true},
	{metricDef{"server.journal_p90_ms", "ms"}, true},
	{metricDef{"server.queue_wait_p50_ms", "ms"}, true},
	{metricDef{"server.queue_wait_p90_ms", "ms"}, true},
	{metricDef{"server.run_p50_ms", "ms"}, true},
	{metricDef{"server.run_p90_ms", "ms"}, true},
	{metricDef{"server.finish_p50_ms", "ms"}, true},
	{metricDef{"server.finish_p90_ms", "ms"}, true},
	{metricDef{"server.simulations", "count"}, false},
	{metricDef{"server.cache_hits", "count"}, false},
	{metricDef{"server.cache_misses", "count"}, false},
	{metricDef{"server.journal_appended", "count"}, false},
	{metricDef{"server.journal_committed", "count"}, false},
	{metricDef{"server.hit_ratio", "ratio"}, false},
	{metricDef{"server.sims_per_request", "ratio"}, false},
}

// TestSmokeAllWorkloads runs every workload traced at a tiny length and
// checks that every metric is printed with its unit, that nothing
// failed, and that the result lines carry exactly BENCHMARK.json's
// metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	checkBenchmarkJSON(t, root)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := defaultConfig()
			cfg.workload, cfg.root, cfg.out, cfg.trace = w, root, t.TempDir(), true
			cfg.window = 600 * time.Millisecond
			cfg.setupReps, cfg.hitSpecs, cfg.longRefs = 1, 4, 20_000
			res, err := runWorkload(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			text := out.String()
			printed := func(kind string, d metricDef) {
				t.Helper()
				re := regexp.MustCompile(`(?m)^` + kind + ` +` + regexp.QuoteMeta(w) + ` +` +
					regexp.QuoteMeta(d.Name) + ` +[-+0-9.e]+ ` + regexp.QuoteMeta(d.Unit) + `\b`)
				if !re.MatchString(text) {
					t.Errorf("%s metric %s (%s) not printed", kind, d.Name, d.Unit)
				}
			}
			for _, d := range append(endToEnd, metricDef{"latency_p99_ms", "ms"}, metricDef{"error_rate", "ratio"}) {
				printed("e2e", d)
			}
			for _, d := range perLayer {
				printed("layer", d)
			}
			if strings.HasPrefix(w, "serve-") {
				for _, d := range serveLayer {
					if !d.missOnly || w == "serve-miss" {
						printed("layer", d.metricDef)
					}
				}
			}
			if m, _ := find(res.E2E, "error_rate"); res.Failed != 0 || m.Value != 0 || len(res.Errors) != 0 {
				t.Errorf("failed %d of %d ops: %v", res.Failed, res.Attempted, res.Errors)
			}
			if m, _ := find(res.Layer, "replay.mismatched_jobs"); m.Value != 0 {
				t.Errorf("%g replayed jobs differ from their reports", m.Value)
			}
			checkResultLine(t, text, perLayer)
			if _, err := os.Stat(filepath.Join(cfg.out, "trace.json")); err != nil {
				t.Error(err)
			}
			// The same result printed untraced carries the end-to-end set.
			res.Traced = false
			out.Reset()
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			checkResultLine(t, out.String(), endToEnd)
		})
	}
}

// checkResultLine checks that the last line is the JSON result with
// exactly the given metrics and units.
func checkResultLine(t *testing.T, text string, want []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
		t.Errorf("result line: %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("result line lacks %s (%s)", d.Name, d.Unit)
		}
	}
}

// checkBenchmarkJSON holds BENCHMARK.json to the workloads and metric
// lists the code prints.
func checkBenchmarkJSON(t *testing.T, root string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the code %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s metric %d is %v, the code prints %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
