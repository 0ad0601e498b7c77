package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"colt/internal/experiments"
	"colt/internal/metrics"
	"colt/internal/server"
)

// fastRegistry is a one-entry experiment registry whose driver
// completes instantly with a seed-derived record, like the server
// package's test stub: the generator's accounting is exercised
// without simulating anything.
func fastRegistry() []experiments.NamedExperiment {
	return []experiments.NamedExperiment{{
		Name: "stub", Desc: "loadgen test stub",
		Run: func(opts experiments.Options) error {
			opts.Metrics.Add(metrics.Record{
				Kind: "bench", Bench: "stub", Setup: "s", Seed: opts.Seed,
			}, 0)
			return nil
		},
	}}
}

func newTarget(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.NewServer(server.Config{
		Registry:   fastRegistry(),
		Workers:    2,
		QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestClosedLoopRun(t *testing.T) {
	ts := newTarget(t)
	res, err := Run(Config{
		BaseURLs:     []string{ts.URL},
		Clients:      4,
		Duration:     30 * time.Second, // bounded by MaxRequests below
		MaxRequests:  300,
		Specs:        8,
		ZipfS:        1.1,
		Seed:         42,
		PollInterval: 200 * time.Microsecond,
		Template:     server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 300 {
		t.Fatalf("requests = %d, want exactly the MaxRequests cap 300", res.Requests)
	}
	if got := res.Accepted + res.Refused + res.Errors; got != res.Requests {
		t.Fatalf("accepted %d + refused %d + errors %d != requests %d",
			res.Accepted, res.Refused, res.Errors, res.Requests)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0 against a healthy stub server", res.Errors)
	}
	if res.Done == 0 || len(res.Latencies) != res.Done {
		t.Fatalf("done = %d with %d latency samples", res.Done, len(res.Latencies))
	}
	// 300 zipf draws over 8 specs repeat heavily: the cache must get
	// hit, and the rate accounting must reflect it.
	if res.CacheHits == 0 || res.CacheHitRate == 0 {
		t.Fatalf("cache hits = %d (rate %g); repeated specs must hit the cache",
			res.CacheHits, res.CacheHitRate)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v p999=%v", res.P50, res.P99, res.P999)
	}
	if res.GoodputRPS <= 0 {
		t.Fatalf("goodput = %g, want > 0", res.GoodputRPS)
	}
}

func TestOpenLoopRun(t *testing.T) {
	ts := newTarget(t)
	res, err := Run(Config{
		BaseURLs:     []string{ts.URL},
		Clients:      4,
		Rate:         500,
		Duration:     300 * time.Millisecond,
		Specs:        4,
		ZipfS:        1.0,
		Seed:         7,
		PollInterval: 200 * time.Microsecond,
		Template:     server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Done == 0 {
		t.Fatalf("open loop made %d requests, %d done; want both > 0", res.Requests, res.Done)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
}

func TestPrewarmMakesWindowAllHits(t *testing.T) {
	ts := newTarget(t)
	res, err := Run(Config{
		BaseURLs:     []string{ts.URL},
		Clients:      2,
		Duration:     30 * time.Second,
		MaxRequests:  100,
		Specs:        4,
		ZipfS:        1.1,
		Seed:         5,
		PollInterval: 200 * time.Microsecond,
		Prewarm:      true,
		Template:     server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every spec was computed before the window, so every accepted
	// submission in the window is a cache hit.
	if res.CacheHitRate != 1.0 {
		t.Fatalf("cache hit rate after prewarm = %g, want 1.0 (%d hits / %d accepted)",
			res.CacheHitRate, res.CacheHits, res.Accepted)
	}
}

// refusingTarget serves /v1/jobs by 503-refusing the first refusals
// POSTs (with a Retry-After hint) and then accepting straight to done.
func refusingTarget(t *testing.T, refusals int32) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var posts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= refusals {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"id":"j000001","state":"done","cached":true}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &posts
}

func TestRetriesRecoverFromTransient503(t *testing.T) {
	ts, posts := refusingTarget(t, 2)
	res, err := Run(Config{
		BaseURLs:    []string{ts.URL},
		Clients:     1,
		Duration:    30 * time.Second,
		MaxRequests: 1,
		Seed:        11,
		RetryMax:    4,
		RetryBase:   time.Millisecond,
		RetryCap:    5 * time.Millisecond, // clamp the server's 1s hint; keep the test fast
		Template:    server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Accepted != 1 || res.Refused != 0 {
		t.Fatalf("requests=%d accepted=%d refused=%d; a retried request is still one request",
			res.Requests, res.Accepted, res.Refused)
	}
	if res.Retries != 2 || res.Backoff <= 0 {
		t.Fatalf("retries=%d backoff=%v, want the two 503s retried with nonzero waits",
			res.Retries, res.Backoff)
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("server saw %d POSTs, want 3 (2 refused + 1 accepted)", got)
	}
}

func TestRetryBudgetExhaustionCountsRefused(t *testing.T) {
	ts, _ := refusingTarget(t, 1<<30) // never stops refusing
	res, err := Run(Config{
		BaseURLs:    []string{ts.URL},
		Clients:     1,
		Duration:    30 * time.Second,
		MaxRequests: 1,
		Seed:        11,
		RetryMax:    2,
		RetryBase:   time.Millisecond,
		RetryCap:    2 * time.Millisecond,
		Template:    server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refused != 1 || res.Retries != 2 || res.Accepted != 0 {
		t.Fatalf("refused=%d retries=%d accepted=%d; want the budget spent then one refusal",
			res.Refused, res.Retries, res.Accepted)
	}
	if got := res.Accepted + res.Refused + res.Errors; got != res.Requests {
		t.Fatalf("outcome identity broken: %d+%d+%d != %d",
			res.Accepted, res.Refused, res.Errors, res.Requests)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	r := &runner{cfg: Config{Seed: 9, RetryBase: 10 * time.Millisecond, RetryCap: 80 * time.Millisecond}}
	a := r.newBackoff("backoff/client/0")
	b := r.newBackoff("backoff/client/0")
	for attempt := 0; attempt < 6; attempt++ {
		da, db := a.next(attempt, 0), b.next(attempt, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed and stream gave %v vs %v", attempt, da, db)
		}
		// Raw wait doubles from base and clamps at cap; jitter scales it
		// into [0.5, 1.0).
		raw := 10 * time.Millisecond << uint(attempt)
		if raw > 80*time.Millisecond {
			raw = 80 * time.Millisecond
		}
		if da < raw/2 || da >= raw {
			t.Fatalf("attempt %d: wait %v outside [%v, %v)", attempt, da, raw/2, raw)
		}
	}
	// The server's Retry-After is a floor on the raw wait, still capped.
	if d := a.next(0, 40*time.Millisecond); d < 20*time.Millisecond || d >= 40*time.Millisecond {
		t.Fatalf("Retry-After floor ignored: wait %v", d)
	}
	if d := a.next(0, time.Second); d < 40*time.Millisecond || d >= 80*time.Millisecond {
		t.Fatalf("cap not applied over Retry-After: wait %v", d)
	}
}

// TestMultiTargetRoundRobin drives two independent daemons through
// BaseURLs and checks the per-target breakdown: both targets take
// traffic, the split is near-even (round-robin, not hash-affine), and
// the per-target counts sum to the aggregate.
func TestMultiTargetRoundRobin(t *testing.T) {
	a, b := newTarget(t), newTarget(t)
	res, err := Run(Config{
		BaseURLs:     []string{a.URL, b.URL},
		Clients:      4,
		Duration:     30 * time.Second, // bounded by MaxRequests below
		MaxRequests:  200,
		Specs:        8,
		ZipfS:        1.1,
		Seed:         7,
		PollInterval: 200 * time.Microsecond,
		Template:     server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTarget) != 2 {
		t.Fatalf("PerTarget has %d entries, want 2", len(res.PerTarget))
	}
	var sumReq, sumDone int
	for _, tr := range res.PerTarget {
		if tr.Requests == 0 {
			t.Fatalf("target %s took no traffic", tr.BaseURL)
		}
		sumReq += tr.Requests
		sumDone += tr.Done
	}
	if sumReq != res.Requests || sumDone != res.Done {
		t.Fatalf("per-target sums (%d req, %d done) != aggregate (%d, %d)",
			sumReq, sumDone, res.Requests, res.Done)
	}
	// Round-robin: neither target should see more than 60% of traffic.
	for _, tr := range res.PerTarget {
		if frac := float64(tr.Requests) / float64(res.Requests); frac > 0.6 {
			t.Fatalf("target %s drew %.0f%% of requests; round-robin should stay near 50%%",
				tr.BaseURL, frac*100)
		}
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors against healthy targets", res.Errors)
	}
}

// TestSingleTargetHasNoBreakdown pins the schema quieter path: one
// target means no PerTarget section.
func TestSingleTargetHasNoBreakdown(t *testing.T) {
	ts := newTarget(t)
	res, err := Run(Config{
		BaseURLs:     []string{ts.URL},
		Clients:      2,
		Duration:     30 * time.Second,
		MaxRequests:  20,
		Specs:        4,
		Seed:         3,
		PollInterval: 200 * time.Microsecond,
		Template:     server.Spec{Experiment: "stub", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTarget != nil {
		t.Fatalf("single-target run produced a PerTarget breakdown: %+v", res.PerTarget)
	}
}

// TestRunRequiresTarget: a run with no base URL fails up front instead
// of dividing its round-robin by zero targets.
func TestRunRequiresTarget(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run with no BaseURLs succeeded")
	}
}
