package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/experiments"
	"colt/internal/loadgen"
	"colt/internal/metrics"
	"colt/internal/rng"
	"colt/internal/server"
)

const (
	serveWorkers = 2
	serveQueue   = 64
	pollInterval = time.Millisecond
	serveRefs    = 2000 // measured references per served fig18 spec
	hitZipfS     = 1.1
	// warmSeedOffset keeps the seeds of untimed warm requests apart
	// from the timed ones.
	warmSeedOffset = 1 << 32
)

//go:embed testdata/serve-miss.sha256
var serveMissSums string

// serveSpec is the spec every serving request submits: a quick fig18
// whose seed makes it distinct.
func serveSpec(seed uint64) server.Spec {
	return server.Spec{Experiment: "fig18", Quick: true, Refs: serveRefs, Seed: seed}
}

// serveEnv is one in-process coltd: a server with its disk cache and
// journal under the output directory, its HTTP API on a loopback
// listener, and the client the load runs through.
type serveEnv struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	base   string
	dir    string
	log    *os.File
	logBuf *bufio.Writer
	client *http.Client
}

func openServe(cfg *config) (*serveEnv, error) {
	dir, err := os.MkdirTemp(cfg.out, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, served: make(chan error, 1)}
	// Structured logs go to a buffered file, as coltload self-hosts:
	// the bench pays for encoding every line, not a syscall per line.
	if e.log, err = os.Create(filepath.Join(dir, "coltd.log.jsonl")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.logBuf = bufio.NewWriterSize(e.log, 1<<20)
	e.srv, err = server.NewServer(server.Config{
		CacheDir:   filepath.Join(dir, "cache"),
		Workers:    serveWorkers,
		QueueDepth: serveQueue,
		Logger:     slog.New(slog.NewJSONHandler(e.logBuf, nil)),
	})
	if err != nil {
		e.log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		e.log.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.http = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.http.Serve(ln) }()
	e.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: cfg.clients, MaxIdleConnsPerHost: cfg.clients},
	}
	return e, nil
}

// close stops the listener, drains the server, and removes its files.
func (e *serveEnv) close() error {
	err := e.http.Close()
	<-e.served
	e.client.CloseIdleConnections()
	if cerr := e.srv.Close(); err == nil {
		err = cerr
	}
	if ferr := e.logBuf.Flush(); err == nil {
		err = ferr
	}
	if cerr := e.log.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// jobStatus is the part of the job status body the bench reads.
type jobStatus struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Error        string `json:"error"`
	Cached       bool   `json:"cached"`
	ReportSHA256 string `json:"report_sha256"`
}

// reqResult is one request's client-side timeline and its report.
type reqResult struct {
	spec                                       server.Spec
	start, submitted, ready, fetched, verified time.Time
	polls                                      int
	pollTime                                   time.Duration
	id                                         string
	cached                                     bool
	submitSum                                  string // report_sha256 of the submit response (hits)
	body                                       []byte
	sum                                        string // SHA-256 of body, as the bench computed it
	phases                                     map[string]float64
}

func (r reqResult) latencyMs() float64 { return ms(r.verified.Sub(r.start)) }

// request submits spec, polls its status every millisecond until it
// is done, fetches the report, and checks the report's bytes against
// the X-Report-Sha256 header.
func (e *serveEnv) request(spec server.Spec, trace string) (reqResult, error) {
	r := reqResult{spec: spec}
	payload, err := json.Marshal(spec)
	if err != nil {
		return r, err
	}
	r.start = time.Now()
	req, err := http.NewRequest(http.MethodPost, e.base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set("X-Colt-Trace", trace)
	}
	var st jobStatus
	if err := e.doJSON(req, http.StatusCreated, &st); err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	r.submitted = time.Now()
	r.id, r.cached, r.submitSum = st.ID, st.Cached, st.ReportSHA256
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			return r, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollInterval)
		t := time.Now()
		req, err := http.NewRequest(http.MethodGet, e.base+"/v1/jobs/"+r.id, nil)
		if err != nil {
			return r, err
		}
		if err := e.doJSON(req, http.StatusOK, &st); err != nil {
			return r, fmt.Errorf("poll: %w", err)
		}
		r.pollTime += time.Since(t)
		r.polls++
	}
	r.ready = time.Now()
	resp, err := e.client.Get(e.base + "/v1/jobs/" + r.id + "/report")
	if err != nil {
		return r, fmt.Errorf("report: %w", err)
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, fmt.Errorf("report: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("report: status %d: %s", resp.StatusCode, r.body)
	}
	r.fetched = time.Now()
	sum := sha256.Sum256(r.body)
	r.sum = hex.EncodeToString(sum[:])
	if h := resp.Header.Get("X-Report-Sha256"); h != r.sum {
		return r, fmt.Errorf("report of job %s hashes to %s, X-Report-Sha256 says %q", r.id, r.sum, h)
	}
	r.verified = time.Now()
	return r, nil
}

func (e *serveEnv) doJSON(req *http.Request, want int, v any) error {
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

func (e *serveEnv) stats() (server.Stats, error) {
	var st server.Stats
	req, err := http.NewRequest(http.MethodGet, e.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	err = e.doJSON(req, http.StatusOK, &st)
	return st, err
}

// checkReport checks a served report's identity: the experiment, and
// the seed and length its spec canonicalizes to.
func checkReport(r reqResult, can server.CanonicalJob) error {
	var rep struct {
		Experiment string `json:"experiment"`
		Options    struct {
			Seed uint64 `json:"seed"`
			Refs int    `json:"refs"`
		} `json:"options"`
	}
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return fmt.Errorf("job %s: decoding report: %w", r.id, err)
	}
	if rep.Experiment != can.Exp.Name || rep.Options.Seed != can.Opts.Seed || rep.Options.Refs != can.Opts.Refs {
		return fmt.Errorf("job %s: report is %s seed %d refs %d, want %s seed %d refs %d", r.id,
			rep.Experiment, rep.Options.Seed, rep.Options.Refs, can.Exp.Name, can.Opts.Seed, can.Opts.Refs)
	}
	return nil
}

// loopOp is one request a client issues and the workload's check of
// its verified response.
type loopOp struct {
	spec  server.Spec
	check func(reqResult) error
}

// serveMix is a traffic mix ready to run against a prepared server.
type serveMix struct {
	next func(client int) (loopOp, error)
	// refSpec is the spec the traced run re-runs in process and
	// replays, and refSum the report hash the server served for it.
	refSpec server.Spec
	refSum  string
}

// serveWorkload is one serving workload: a pass size and how to ready
// a fresh server (the set-up step) for its mix.
type serveWorkload struct {
	// passSize is how many verified reports make one pass.
	passSize int
	prepare  func(cfg *config, e *serveEnv) (*serveMix, error)
}

var serveWorkloads = map[string]serveWorkload{
	"serve-miss": {passSize: 8, prepare: prepareMiss},
	"serve-hit":  {passSize: 256, prepare: prepareHit},
}

// prepareMiss warms the server with one untimed fresh request; the mix
// then submits a never-seen spec every time.
func prepareMiss(cfg *config, e *serveEnv) (*serveMix, error) {
	reg := experiments.Registry()
	warm := serveSpec(cfg.seed + warmSeedOffset)
	r, err := e.request(warm, "")
	if err != nil {
		return nil, fmt.Errorf("warm request: %w", err)
	}
	can, err := server.Canonicalize(warm, reg)
	if err != nil {
		return nil, err
	}
	if err := checkReport(r, can); err != nil {
		return nil, err
	}
	pinned := pinnedSums(serveMissSums)
	var seq atomic.Uint64
	next := func(int) (loopOp, error) {
		i := seq.Add(1) - 1
		spec := serveSpec(cfg.seed + i)
		can, err := server.Canonicalize(spec, reg)
		if err != nil {
			return loopOp{}, err
		}
		return loopOp{spec: spec, check: func(r reqResult) error {
			if r.cached {
				return fmt.Errorf("job %s for fresh seed %d was served from cache", r.id, spec.Seed)
			}
			if cfg.seed == defaultSeed && i < uint64(len(pinned)) && r.sum != pinned[i] {
				return fmt.Errorf("job %s (spec %d) report SHA-256 %s differs from the pinned value in testdata", r.id, i, r.sum)
			}
			return checkReport(r, can)
		}}, nil
	}
	return &serveMix{next: next, refSpec: warm, refSum: r.sum}, nil
}

// prepareHit prewarms the cache with the mix's specs over HTTP; the
// mix then draws from them with zipf popularity, so every request is
// a cache hit whose bytes must equal the prewarmed ones.
func prepareHit(cfg *config, e *serveEnv) (*serveMix, error) {
	reg := experiments.Registry()
	specs := make([]server.Spec, cfg.hitSpecs)
	bodies := make([][]byte, cfg.hitSpecs)
	sums := make([]string, cfg.hitSpecs)
	var seq atomic.Int64
	errs := make([]error, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := int(seq.Add(1) - 1); k < cfg.hitSpecs; k = int(seq.Add(1) - 1) {
				specs[k] = serveSpec(cfg.seed + uint64(k))
				r, err := e.request(specs[k], "")
				if err == nil {
					var can server.CanonicalJob
					if can, err = server.Canonicalize(specs[k], reg); err == nil {
						err = checkReport(r, can)
					}
				}
				if err != nil {
					errs[c] = fmt.Errorf("prewarm spec %d: %w", k, err)
					return
				}
				bodies[k], sums[k] = r.body, r.sum
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	zipfs := make([]*loadgen.Zipf, cfg.clients)
	for c := range zipfs {
		zipfs[c] = loadgen.NewZipf(rng.New(cfg.seed).Stream(fmt.Sprintf("client-%d", c)), cfg.hitSpecs, hitZipfS)
	}
	next := func(c int) (loopOp, error) {
		k := zipfs[c].Next()
		return loopOp{spec: specs[k], check: func(r reqResult) error {
			if !r.cached || r.submitSum != sums[k] {
				return fmt.Errorf("job %s for prewarmed spec %d: cached=%v report_sha256=%q, want a hit on %s",
					r.id, k, r.cached, r.submitSum, sums[k])
			}
			if !bytes.Equal(r.body, bodies[k]) {
				return fmt.Errorf("job %s: report differs from the prewarmed bytes of spec %d", r.id, k)
			}
			return nil
		}}, nil
	}
	return &serveMix{next: next, refSpec: specs[0], refSum: sums[0]}, nil
}

// serveLoop is one timed window of the closed loop.
type serveLoop struct {
	reqs     []reqResult // verified, ordered by completion
	attempts int
	errs     []error
	elapsed  time.Duration
	start    time.Time
}

// runLoop drives cfg.clients closed-loop clients for the window: each
// sends its next request only when the previous one is verified.
// Traced, every request carries a trace ID the server's timeline
// echoes, and its spans are recorded.
func (e *serveEnv) runLoop(cfg *config, mix *serveMix, tr *tracer, window time.Duration) serveLoop {
	type clientOut struct {
		reqs     []reqResult
		attempts int
		errs     []error
	}
	outs := make([]clientOut, cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for n := 0; time.Since(start) < window; n++ {
				out.attempts++
				op, err := mix.next(c)
				var r reqResult
				trace := ""
				if err == nil {
					if tr != nil {
						trace = fmt.Sprintf("%08x%02x%06x", uint32(cfg.seed), c, n)
					}
					r, err = e.request(op.spec, trace)
				}
				if err == nil {
					err = op.check(r)
				}
				if err == nil && tr != nil {
					err = e.traceRequest(tr, trace, &r)
				}
				if err != nil {
					out.errs = append(out.errs, err)
					continue
				}
				r.body = nil // checked; keeping every body would hold gigabytes
				out.reqs = append(out.reqs, r)
			}
		}(c)
	}
	wg.Wait()
	l := serveLoop{elapsed: time.Since(start), start: start}
	for _, o := range outs {
		l.reqs = append(l.reqs, o.reqs...)
		l.attempts += o.attempts
		l.errs = append(l.errs, o.errs...)
	}
	sort.Slice(l.reqs, func(i, j int) bool { return l.reqs[i].verified.Before(l.reqs[j].verified) })
	return l
}

// serverPhases are the timeline edges the traced run turns into
// server-side spans.
var serverPhases = []struct{ name, from, to string }{
	{"server.journal", "admitted", "journaled"},
	{"server.queue_wait", "queued", "running"},
	{"server.run", "running", "committed"},
	{"server.finish", "committed", "done"},
}

// traceRequest records a finished request's client spans, then reads
// its timeline from the server and records the server-side phases
// under the same trace ID.
func (e *serveEnv) traceRequest(tr *tracer, trace string, r *reqResult) error {
	root := tr.record("serve.request", trace, 0, r.start.Sub(tr.epoch), r.verified.Sub(tr.epoch), 1)
	tr.record("http.submit", trace, root, r.start.Sub(tr.epoch), r.submitted.Sub(tr.epoch), 1)
	tr.record("http.poll_wait", trace, root, r.submitted.Sub(tr.epoch), r.ready.Sub(tr.epoch), r.polls)
	tr.record("http.report", trace, root, r.ready.Sub(tr.epoch), r.fetched.Sub(tr.epoch), 1)
	tr.record("verify", trace, root, r.fetched.Sub(tr.epoch), r.verified.Sub(tr.epoch), 1)
	var tl struct {
		TraceID string `json:"trace_id"`
		Marks   []struct {
			Phase  string `json:"phase"`
			UnixNs int64  `json:"unix_ns"`
		} `json:"marks"`
	}
	req, err := http.NewRequest(http.MethodGet, e.base+"/v1/jobs/"+r.id+"/timeline", nil)
	if err != nil {
		return err
	}
	if err := e.doJSON(req, http.StatusOK, &tl); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if tl.TraceID != trace {
		return fmt.Errorf("job %s timeline carries trace %q, the request sent %q", r.id, tl.TraceID, trace)
	}
	at := make(map[string]int64, len(tl.Marks))
	for _, m := range tl.Marks {
		at[m.Phase] = m.UnixNs
	}
	r.phases = make(map[string]float64)
	for _, p := range serverPhases {
		from, ok1 := at[p.from]
		to, ok2 := at[p.to]
		if ok1 && ok2 {
			tr.record(p.name, trace, root, tr.at(from), tr.at(to), 1)
			r.phases[p.name] = float64(to-from) / 1e6
		}
	}
	return nil
}

// passTimes cuts the completions into consecutive passes of size
// verified reports and returns each pass's duration in seconds.
func passTimes(l serveLoop, size int) []float64 {
	var out []float64
	prev := l.start
	for i := size - 1; i < len(l.reqs); i += size {
		t := l.reqs[i].verified
		out = append(out, t.Sub(prev).Seconds())
		prev = t
	}
	if len(out) == 0 && len(l.reqs) > 0 {
		// Too short a window for one pass: extrapolate from the rate.
		out = append(out, l.elapsed.Seconds()/float64(len(l.reqs))*float64(size))
	}
	return out
}

func (l serveLoop) account(res *result) {
	res.Attempted += l.attempts
	for _, err := range l.errs {
		res.fail(1, err)
	}
}

// runServe runs a serving workload: set up a fresh server (several
// times), then a timed closed-loop window; traced, a second window
// with spans and server timelines, direct probes of Canonicalize and
// the cache, and a replay of one served spec through the simulator.
func runServe(cfg *config, w serveWorkload) (*result, error) {
	res := &result{Workload: cfg.workload, Traced: cfg.trace}
	var e *serveEnv
	var mix *serveMix
	var setups []float64
	for {
		t0 := time.Now()
		if len(setups) == 0 {
			t0 = processStart
		}
		var err error
		if e, err = openServe(cfg); err != nil {
			return nil, err
		}
		if mix, err = w.prepare(cfg, e); err != nil {
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !cfg.moreSetups(setups) {
			break
		}
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	defer e.close()

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	before := readRuntime()
	plain := e.runLoop(cfg, mix, nil, window)
	after := readRuntime()
	plain.account(res)

	res.timing("setup_s", "s", setups)
	res.timing("pass_s", "s", passTimes(plain, w.passSize))
	lat := make([]float64, len(plain.reqs))
	for i, r := range plain.reqs {
		lat[i] = r.latencyMs()
	}
	latencies(res, lat)
	goodput := 0.0
	if n := len(plain.reqs); n > 0 {
		goodput = float64(n) / plain.reqs[n-1].verified.Sub(plain.start).Seconds()
	}
	res.e2e("goodput_rps", "1/s", goodput, len(plain.reqs))
	if !cfg.trace {
		return res, nil
	}

	res.runtimeLayer(before, after, len(plain.reqs))
	httpLayers(res, plain.reqs)
	tr := newTracer()
	st0, err := e.stats()
	if err != nil {
		return nil, err
	}
	traced := e.runLoop(cfg, mix, tr, window)
	traced.account(res)
	st1, err := e.stats()
	if err != nil {
		return nil, err
	}
	if len(traced.reqs) == 0 {
		return nil, fmt.Errorf("traced window completed no verified request")
	}
	tlat := make([]float64, len(traced.reqs))
	for i, r := range traced.reqs {
		tlat[i] = r.latencyMs()
	}
	res.layer("trace.overhead", "ratio", median(tlat)/median(lat))
	serverLayers(res, traced.reqs, st0, st1)
	if err := probeServer(res, tr, e, traced.reqs); err != nil {
		return nil, err
	}

	// The simulator layers: re-run the reference spec in process (its
	// bytes must equal what the server served), then replay its jobs.
	reg := experiments.Registry()
	can, err := server.Canonicalize(mix.refSpec, reg)
	if err != nil {
		return nil, err
	}
	o := can.Opts
	o.Parallel = cfg.nproc
	pr, err := runPass(tr, "reference", []experiments.NamedExperiment{can.Exp}, o)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if pr.sums[0] != mix.refSum {
		res.fail(1, fmt.Errorf("reference run of %+v hashes to %s, the server served %s", mix.refSpec, pr.sums[0], mix.refSum))
	}
	passLayers(res, []passResult{pr}, cfg.nproc)
	return res, replayLayers(res, tr, pr.reports, cfg)
}

// httpLayers adds the client-side request timings of a window.
func httpLayers(res *result, reqs []reqResult) {
	var submit, report, poll []float64
	polls := 0
	for _, r := range reqs {
		submit = append(submit, ms(r.submitted.Sub(r.start)))
		report = append(report, ms(r.fetched.Sub(r.ready)))
		if r.polls > 0 {
			poll = append(poll, ms(r.pollTime)/float64(r.polls))
		}
		polls += r.polls
	}
	res.layerTiming("http.submit_p50_ms", "ms", submit, 50)
	res.layerTiming("http.submit_p99_ms", "ms", submit, 99)
	res.layerTiming("http.report_p50_ms", "ms", report, 50)
	res.layerTiming("http.report_p99_ms", "ms", report, 99)
	if len(poll) > 0 {
		res.layerTiming("http.poll_ms", "ms", poll, 50)
	}
	res.layer("http.polls_per_req", "count", float64(polls)/float64(max(len(reqs), 1)))
}

// serverLayers adds the server-side phase times from the traced
// requests' timelines and the /v1/stats counters over the window.
func serverLayers(res *result, reqs []reqResult, st0, st1 server.Stats) {
	for _, p := range serverPhases {
		var xs []float64
		for _, r := range reqs {
			if v, ok := r.phases[p.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			res.layerTiming(p.name+"_p50_ms", "ms", xs, 50)
			res.layerTiming(p.name+"_p90_ms", "ms", xs, 90)
		}
	}
	hits := float64(st1.Cache.Hits - st0.Cache.Hits)
	misses := float64(st1.Cache.Misses - st0.Cache.Misses)
	sims := float64(st1.Simulations - st0.Simulations)
	res.layer("server.simulations", "count", sims)
	res.layer("server.cache_hits", "count", hits)
	res.layer("server.cache_misses", "count", misses)
	if st0.Journal != nil && st1.Journal != nil {
		res.layer("server.journal_appended", "count", float64(st1.Journal.Appended-st0.Journal.Appended))
		res.layer("server.journal_committed", "count", float64(st1.Journal.Committed-st0.Journal.Committed))
	}
	res.layer("server.hit_ratio", "ratio", hits/max(hits+misses, 1))
	res.layer("server.sims_per_request", "ratio", sims/float64(len(reqs)))
}

// probeServer times server.Canonicalize and the cache read (with its
// SHA-256 re-verification) directly, on the specs the traced window
// served, after the window's stats were read.
func probeServer(res *result, tr *tracer, e *serveEnv, reqs []reqResult) error {
	const maxProbes = 256
	reg := experiments.Registry()
	var canUs, getMs []float64
	root := tr.begin("serve.probe", "probe", 0)
	for i := 0; i < len(reqs) && i < maxProbes; i++ {
		r := reqs[i]
		t0 := time.Now()
		can, err := server.Canonicalize(r.spec, reg)
		t1 := time.Now()
		if err != nil {
			return err
		}
		b, ok := e.srv.Cache().Get(can.Hash)
		t2 := time.Now()
		tr.record("server.canonicalize", "probe", root.id, t0.Sub(tr.epoch), t1.Sub(tr.epoch), 1)
		tr.record("server.cache_get", "probe", root.id, t1.Sub(tr.epoch), t2.Sub(tr.epoch), 1)
		if !ok || metrics.Sum256Hex(b) != r.sum {
			res.fail(1, fmt.Errorf("cache entry for job %s is missing or differs from the served report", r.id))
		}
		canUs = append(canUs, float64(t1.Sub(t0))/1e3)
		getMs = append(getMs, ms(t2.Sub(t1)))
	}
	root.end(len(canUs))
	res.layerTiming("server.canonicalize_us", "us", canUs, 50)
	res.layerTiming("server.cache_get_ms", "ms", getMs, 50)
	return nil
}
