package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"colt/internal/experiments"
	"colt/internal/metrics"
	"colt/internal/server"
)

func TestValidate(t *testing.T) {
	ok := func(clients int, rate float64, dur time.Duration, requests, specs int, zipfS float64, refs int, poll time.Duration) error {
		return validate(clients, rate, dur, requests, specs, zipfS, refs, poll, 25*time.Millisecond, time.Second)
	}
	if err := ok(16, 0, 5*time.Second, 0, 64, 1.1, 2000, time.Millisecond); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	cases := []struct {
		name, wantFlag string
		err            error
	}{
		{"clients", "-clients", ok(0, 0, time.Second, 0, 1, 1, 1, time.Millisecond)},
		{"rate", "-rate", ok(1, -1, time.Second, 0, 1, 1, 1, time.Millisecond)},
		{"duration", "-duration", ok(1, 0, 0, 0, 1, 1, 1, time.Millisecond)},
		{"requests", "-requests", ok(1, 0, time.Second, -1, 1, 1, 1, time.Millisecond)},
		{"specs", "-specs", ok(1, 0, time.Second, 0, 0, 1, 1, time.Millisecond)},
		{"zipf-s", "-zipf-s", ok(1, 0, time.Second, 0, 1, -0.5, 1, time.Millisecond)},
		{"refs", "-refs", ok(1, 0, time.Second, 0, 1, 1, 0, time.Millisecond)},
		{"poll", "-poll", ok(1, 0, time.Second, 0, 1, 1, 1, 0)},
		{"retry-base", "-retry-base", validate(1, 0, time.Second, 0, 1, 1, 1, time.Millisecond, 0, time.Second)},
		{"retry-cap", "-retry-cap", validate(1, 0, time.Second, 0, 1, 1, 1, time.Millisecond, time.Second, time.Millisecond)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("invalid flag accepted")
			}
			if !strings.Contains(tc.err.Error(), tc.wantFlag) {
				t.Fatalf("error %q does not name %s", tc.err, tc.wantFlag)
			}
		})
	}
}

func TestParseAddrs(t *testing.T) {
	got, err := parseAddrs("http://a:1, http://b:2/,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("parseAddrs = %v", got)
	}
	for _, addrs := range []string{
		"",    // required
		"a:1", // no scheme
		" , ", // nothing named
	} {
		if _, err := parseAddrs(addrs); err == nil {
			t.Fatalf("parseAddrs(%q) succeeded", addrs)
		}
	}
}

// stubDaemon serves an in-process coltd whose one experiment completes
// instantly, so run's accounting is exercised without simulating.
func stubDaemon(t *testing.T) string {
	t.Helper()
	s, err := server.NewServer(server.Config{
		Registry: []experiments.NamedExperiment{{
			Name: "stub", Desc: "coltload test stub",
			Run: func(opts experiments.Options) error {
				opts.Metrics.Add(metrics.Record{Kind: "bench", Bench: "stub", Setup: "s", Seed: opts.Seed}, 0)
				return nil
			},
		}},
		Workers:    2,
		QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRunDrivesTwoDaemons runs the command end to end against two
// daemons and checks the summary it writes: every request served, a
// per-node breakdown that sums to the total, the requested slow tail,
// and exactly the summary's documented keys.
func TestRunDrivesTwoDaemons(t *testing.T) {
	out := filepath.Join(t.TempDir(), "summary.json")
	const requests, slowest = 40, 3
	err := run(config{
		addrs:   []string{stubDaemon(t), stubDaemon(t)},
		clients: 4, duration: 30 * time.Second, requests: requests,
		specs: 4, zipfS: 1.1, seed: 1, experiment: "stub", refs: 100,
		prewarm: true, poll: 200 * time.Microsecond,
		retryMax: 4, retryBase: 25 * time.Millisecond, retryCap: time.Second,
		out: out, slowest: slowest,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Requests != requests || sum.Done != requests || sum.Errors != 0 {
		t.Fatalf("requests=%d done=%d errors=%d, want %d, %d, 0",
			sum.Requests, sum.Done, sum.Errors, requests, requests)
	}
	if len(sum.Nodes) != 2 {
		t.Fatalf("nodes has %d entries, want 2", len(sum.Nodes))
	}
	if got := sum.Nodes[0].Requests + sum.Nodes[1].Requests; got != sum.Requests {
		t.Fatalf("per-node requests sum to %d, want %d", got, sum.Requests)
	}
	if len(sum.Slowest) != slowest {
		t.Fatalf("slowest has %d entries, want %d", len(sum.Slowest), slowest)
	}
	// The summary carries exactly these keys: no commit hash, no
	// baseline or speedup fields, no /metrics series count.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"p50_ms", "p99_ms", "p999_ms", "goodput_rps", "requests", "accepted",
		"refused", "errors", "done", "retries", "backoff_ms", "cache_hit_rate", "coalesce_rate",
		"zipf_s", "specs", "clients", "duration_s", "mode", "nodes", "slowest"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("summary lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("summary carries unexpected key %q", k)
	}
}
