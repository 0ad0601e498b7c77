package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/rng"
	"colt/internal/server"
)

// Config shapes one load-generation run against running coltd
// daemons.
type Config struct {
	// BaseURLs names the daemons under test, e.g.
	// "http://127.0.0.1:8077"; at least one is required. Requests
	// round-robin across them, and each request's whole lifecycle
	// (submit, retries, status polls) stays on the target it drew —
	// the way a DNS-round-robin client would behave against a coltd
	// fleet. With more than one, the Result carries a per-target
	// breakdown.
	BaseURLs []string
	// Clients is the closed-loop concurrency (and the worker pool that
	// absorbs open-loop arrivals). Default 16.
	Clients int
	// Rate selects open-loop mode when > 0: arrivals are dispatched at
	// Rate req/s regardless of completions. Rate == 0 is closed-loop:
	// each client issues its next request when the previous one
	// finishes.
	Rate float64
	// Duration bounds the run (default 5s). In-flight requests at the
	// deadline are allowed to finish and are recorded.
	Duration time.Duration
	// MaxRequests, when > 0, additionally caps total submissions —
	// deterministic test runs use it.
	MaxRequests int
	// Specs is the size of the spec universe (default 64).
	Specs int
	// ZipfS is the popularity skew exponent (default 1.1; 0 = uniform).
	ZipfS float64
	// Seed roots every sampler stream; identical seeds replay
	// identical per-client request sequences.
	Seed uint64
	// Template is the spec sent for item 0; item k overrides Seed with
	// Template.Seed + k so the universe holds Specs distinct content
	// hashes of equal cost.
	Template server.Spec
	// PollInterval paces the job-status polling loop (default 1ms).
	PollInterval time.Duration
	// Prewarm, when set, submits every spec once and waits for the
	// universe to be fully cached before the measured window starts —
	// the run then measures pure serving paths, not simulation time.
	Prewarm bool
	// RetryMax bounds how many times one request retries a 503 before
	// counting it refused (default 4; negative disables retries). 429
	// is never retried — the spec itself is over the server's ceiling
	// and will be over it next time too.
	RetryMax int
	// RetryBase and RetryCap shape the exponential backoff between
	// retries (defaults 25ms and 1s): attempt n waits
	// jitter × min(cap, max(base·2ⁿ, server Retry-After)), with
	// deterministic jitter in [0.5, 1.0) from a per-client rng stream.
	RetryBase time.Duration
	RetryCap  time.Duration
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 16
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.Specs == 0 {
		c.Specs = 64
	}
	if c.PollInterval == 0 {
		c.PollInterval = time.Millisecond
	}
	if c.Template.Seed == 0 {
		c.Template.Seed = 1
	}
	if c.RetryMax == 0 {
		c.RetryMax = 4
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase == 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap == 0 {
		c.RetryCap = time.Second
	}
	return c
}

// backoff derives deterministic retry waits for one client: the jitter
// stream is a pure function of (seed, stream name), so a rerun with
// the same seed backs off identically. Safe for concurrent use (the
// open loop shares one across its arrival goroutines).
type backoff struct {
	mu        sync.Mutex
	rng       *rng.RNG
	base, cap time.Duration
}

func (r *runner) newBackoff(name string) *backoff {
	return &backoff{
		rng:  rng.New(r.cfg.Seed).Stream(name),
		base: r.cfg.RetryBase,
		cap:  r.cfg.RetryCap,
	}
}

// next returns the wait before retry number attempt (0-based), folding
// in the server's Retry-After hint: the wait doubles per attempt,
// never undercuts what the server asked for, never exceeds the cap,
// and carries jitter in [0.5, 1.0) so a refused crowd spreads out
// instead of returning as the same thundering herd that was refused.
func (b *backoff) next(attempt int, retryAfter time.Duration) time.Duration {
	d := b.base << uint(attempt)
	if retryAfter > d {
		d = retryAfter
	}
	if d > b.cap || d <= 0 {
		d = b.cap
	}
	b.mu.Lock()
	f := b.rng.Float64()
	b.mu.Unlock()
	return time.Duration((0.5 + 0.5*f) * float64(d))
}

// Result is the aggregated outcome of a run.
type Result struct {
	Recorder
	Config  Config
	Elapsed time.Duration
	P50     time.Duration
	P99     time.Duration
	P999    time.Duration
	// GoodputRPS is successfully served jobs per second of elapsed
	// wall clock.
	GoodputRPS float64
	// CacheHitRate and CoalesceRate are fractions of accepted
	// submissions.
	CacheHitRate float64
	CoalesceRate float64
	// PerTarget breaks the run down by daemon when BaseURLs named more
	// than one; nil on single-target runs.
	PerTarget []TargetResult
}

// TargetResult is one daemon's slice of a multi-target run.
type TargetResult struct {
	BaseURL    string
	Requests   int
	Done       int
	Refused    int
	Errors     int
	GoodputRPS float64
	P50        time.Duration
	P99        time.Duration
}

// submitResponse mirrors the fields of POST /v1/jobs the generator
// consumes.
type submitResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// jobStatus mirrors GET /v1/jobs/{id}.
type jobStatus struct {
	State string `json:"state"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// runner is the per-run shared state.
type runner struct {
	cfg    Config
	client *http.Client
	bodies [][]byte
	left   atomic.Int64 // remaining request budget; negative = unlimited

	// rr cycles requests across cfg.BaseURLs; trecs accumulates the
	// per-target breakdown (mutex-guarded: it's touched once per
	// request completion, off the latency-critical path).
	rr    atomic.Uint64
	tmu   sync.Mutex
	trecs []*Recorder
}

// nextTarget draws the round-robin target for one request.
func (r *runner) nextTarget() int {
	return int((r.rr.Add(1) - 1) % uint64(len(r.cfg.BaseURLs)))
}

// recordTarget mirrors one finished request's outcome into the
// per-target breakdown.
func (r *runner) recordTarget(idx int, rec *Recorder) {
	if len(r.cfg.BaseURLs) < 2 {
		return
	}
	r.tmu.Lock()
	r.trecs[idx].Merge(rec)
	r.tmu.Unlock()
}

// Run executes one load-generation run and aggregates the results.
func Run(cfg Config) (Result, error) {
	if len(cfg.BaseURLs) == 0 {
		return Result{}, fmt.Errorf("loadgen: no target base URLs")
	}
	cfg = cfg.withDefaults()
	bodies := make([][]byte, cfg.Specs)
	for k := range bodies {
		spec := cfg.Template
		spec.Seed = cfg.Template.Seed + uint64(k)
		b, err := json.Marshal(spec)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: encoding spec %d: %w", k, err)
		}
		bodies[k] = b
	}
	r := &runner{
		cfg: cfg,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Clients * 2,
				MaxIdleConnsPerHost: cfg.Clients * 2,
			},
		},
		bodies: bodies,
	}
	if cfg.MaxRequests > 0 {
		r.left.Store(int64(cfg.MaxRequests))
	} else {
		r.left.Store(1 << 62)
	}
	r.trecs = make([]*Recorder, len(cfg.BaseURLs))
	for i := range r.trecs {
		r.trecs[i] = &Recorder{}
	}

	if cfg.Prewarm {
		if err := r.prewarm(); err != nil {
			return Result{}, err
		}
		// Prewarm traffic routes through the same round-robin path;
		// drop it from the per-target breakdown so those recorders
		// cover only the measured window, like the per-client ones.
		for i := range r.trecs {
			r.trecs[i] = &Recorder{}
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	// In-flight requests at the deadline get a grace window to finish;
	// polls abandoned at the hard context deadline count as errors.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(30*time.Second))
	defer cancel()

	recs := make([]*Recorder, cfg.Clients)
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		r.openLoop(ctx, deadline, recs, &wg)
	} else {
		for i := 0; i < cfg.Clients; i++ {
			recs[i] = &Recorder{}
			z := NewZipf(rng.New(cfg.Seed).Stream(fmt.Sprintf("client/%d", i)), cfg.Specs, cfg.ZipfS)
			bo := r.newBackoff(fmt.Sprintf("backoff/client/%d", i))
			wg.Add(1)
			go func(rec *Recorder) {
				defer wg.Done()
				for time.Now().Before(deadline) && r.left.Add(-1) >= 0 {
					r.doRequest(ctx, z.Next(), rec, bo)
				}
			}(recs[i])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Config: cfg, Elapsed: elapsed}
	for _, rec := range recs {
		if rec != nil {
			res.Recorder.Merge(rec)
		}
	}
	ps := res.Percentiles(0.50, 0.99, 0.999)
	res.P50, res.P99, res.P999 = ps[0], ps[1], ps[2]
	if elapsed > 0 {
		res.GoodputRPS = float64(res.Done) / elapsed.Seconds()
	}
	if res.Accepted > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(res.Accepted)
		res.CoalesceRate = float64(res.Coalesced) / float64(res.Accepted)
	}
	if len(cfg.BaseURLs) > 1 {
		for i, tr := range r.trecs {
			ps := tr.Percentiles(0.50, 0.99)
			t := TargetResult{
				BaseURL:  cfg.BaseURLs[i],
				Requests: tr.Requests,
				Done:     tr.Done,
				Refused:  tr.Refused,
				Errors:   tr.Errors,
				P50:      ps[0],
				P99:      ps[1],
			}
			if elapsed > 0 {
				t.GoodputRPS = float64(tr.Done) / elapsed.Seconds()
			}
			res.PerTarget = append(res.PerTarget, t)
		}
	}
	return res, nil
}

// openLoop dispatches arrivals at cfg.Rate onto goroutines. The zipf
// stream is sampled by the dispatcher, so the arrival sequence is the
// deterministic "arrivals" stream regardless of service times.
func (r *runner) openLoop(ctx context.Context, deadline time.Time, recs []*Recorder, wg *sync.WaitGroup) {
	z := NewZipf(rng.New(r.cfg.Seed).Stream("arrivals"), r.cfg.Specs, r.cfg.ZipfS)
	interval := time.Duration(float64(time.Second) / r.cfg.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var mu sync.Mutex
	shared := &Recorder{}
	recs[0] = shared
	bo := r.newBackoff("backoff/arrivals")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for time.Now().Before(deadline) && r.left.Add(-1) >= 0 {
		k := z.Next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec Recorder
			r.doRequest(ctx, k, &rec, bo)
			mu.Lock()
			shared.Merge(&rec)
			mu.Unlock()
		}()
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return
		}
	}
}

// prewarm seeds the cache: every spec in the universe is submitted
// once and the run does not start until each has terminated.
func (r *runner) prewarm() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for k := range r.bodies {
		for {
			var rec Recorder
			// Prewarm runs its own unbounded retry loop below, so it
			// submits without the bounded backoff helper.
			r.doRequest(ctx, k, &rec, nil)
			if rec.Done > 0 {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("loadgen: prewarm of spec %d timed out", k)
			}
			// Refused (queue full) or failed: back off and retry.
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// doRequest submits spec k against the next round-robin target —
// retrying 503 refusals with jittered exponential backoff when bo is
// non-nil — and follows the accepted job to a terminal state,
// recording the outcome into rec (and the per-target breakdown). A
// retried request stays one Request; its waits accumulate in
// rec.Backoff and its eventual latency (client-perceived) includes
// them.
func (r *runner) doRequest(ctx context.Context, k int, rec *Recorder, bo *backoff) {
	idx := r.nextTarget()
	var local Recorder
	r.doRequestAt(ctx, r.cfg.BaseURLs[idx], k, &local, bo)
	rec.Merge(&local)
	r.recordTarget(idx, &local)
}

// doRequestAt is doRequest pinned to one target base URL.
func (r *runner) doRequestAt(ctx context.Context, base string, k int, rec *Recorder, bo *backoff) {
	rec.Requests++
	t0 := time.Now()
	var sr submitResponse
	var code int
	var trace string
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		var err error
		code, retryAfter, trace, err = r.submit(ctx, base, k, &sr)
		if err != nil {
			rec.Errors++
			return
		}
		switch code {
		case http.StatusCreated, http.StatusOK:
			// Admitted.
		case http.StatusServiceUnavailable:
			// Transient pressure (queue full, draining): the server's
			// Retry-After says when it expects room again.
			if bo != nil && attempt < r.cfg.RetryMax {
				d := bo.next(attempt, retryAfter)
				rec.Retries++
				rec.Backoff += d
				select {
				case <-ctx.Done():
					rec.Refused++
					return
				case <-time.After(d):
				}
				continue
			}
			rec.Refused++
			return
		case http.StatusTooManyRequests:
			// Hard admission ceiling: the same spec meets the same
			// ceiling on every resubmission, so never retry.
			rec.Refused++
			return
		default:
			rec.Errors++
			return
		}
		break
	}
	rec.Accepted++
	if code == http.StatusOK {
		rec.Coalesced++ // folded onto an identical in-flight job
	}
	if sr.Cached {
		rec.CacheHits++
	}
	state := sr.State
	for !terminal(state) {
		select {
		case <-ctx.Done():
			rec.Errors++
			return
		case <-time.After(r.cfg.PollInterval):
		}
		st, code, err := r.poll(ctx, base, sr.ID)
		if err != nil {
			rec.Errors++
			return
		}
		if code == http.StatusNotFound {
			// The job finished and was evicted from the bounded
			// registry between polls; eviction implies terminal, and
			// only done jobs outlive their tracking via the cache.
			state = "done"
			break
		}
		state = st
	}
	if state == "done" {
		rec.Done++
		rec.Latencies = append(rec.Latencies, time.Since(t0))
		rec.Slow = append(rec.Slow, SlowSample{TraceID: trace, Latency: time.Since(t0)})
	} else {
		rec.Errors++
	}
}

// submit performs one POST /v1/jobs attempt for spec k, decoding the
// body into sr on 2xx, the Retry-After header (whole seconds, as
// coltd sends it) into retryAfter on refusals, and returning the
// X-Colt-Trace the server minted (or adopted) for the request.
func (r *runner) submit(ctx context.Context, base string, k int, sr *submitResponse) (code int, retryAfter time.Duration, trace string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/jobs", bytes.NewReader(r.bodies[k]))
	if err != nil {
		return 0, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	trace = resp.Header.Get("X-Colt-Trace")
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if derr := json.NewDecoder(resp.Body).Decode(sr); derr != nil {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, 0, trace, derr
		}
	}
	io.Copy(io.Discard, resp.Body)
	if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	return resp.StatusCode, retryAfter, trace, nil
}

// poll fetches one job-status snapshot.
func (r *runner) poll(ctx context.Context, base, id string) (state string, code int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return "", http.StatusNotFound, nil
	}
	var js jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		return "", resp.StatusCode, err
	}
	io.Copy(io.Discard, resp.Body)
	return js.State, resp.StatusCode, nil
}
