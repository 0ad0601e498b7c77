// Command coltload is the serving-path load generator: it drives a
// coltd daemon with a zipf-skewed stream of job submissions and
// reports served latency percentiles, goodput, refusal counts, and
// cache/coalesce hit rates — the BENCH_serve.json trajectory numbers
// (make bench-serve; EXPERIMENTS.md documents the schema and
// methodology).
//
// Two targets: -addr points it at a running daemon; with no -addr it
// self-hosts a server in-process on an ephemeral port (the hermetic
// mode the benchmark script uses, so a bench run measures exactly one
// build's serving stack). Two loops: closed (default; each of
// -clients issues its next request when the previous finishes) and
// open (-rate R dispatches R arrivals/sec regardless of completions).
// The spec universe is -specs variants of one template spec differing
// only in seed, with popularity zipf(-zipf-s): item 0 is the hot key.
// Every sampler is seeded from -seed via internal/rng streams, so a
// run's request sequences are deterministic.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"colt/internal/loadgen"
	"colt/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target daemon base URL (e.g. http://127.0.0.1:8077); empty self-hosts a server in-process")
		addrs    = flag.String("addrs", "", "comma-separated base URLs of a coltd fleet; submissions round-robin across them and the summary gains a per-node breakdown (overrides -addr)")
		clients  = flag.Int("clients", 16, "closed-loop concurrency")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		duration = flag.Duration("duration", 5*time.Second, "measured window")
		requests = flag.Int("requests", 0, "optional total-request cap (0 = duration-bounded only)")
		specs    = flag.Int("specs", 64, "spec-universe size (distinct content hashes)")
		zipfS    = flag.Float64("zipf-s", 1.1, "zipf popularity exponent (0 = uniform)")
		seed     = flag.Uint64("seed", 1, "root seed for the deterministic samplers")
		expName  = flag.String("experiment", "table1", "experiment submitted by every spec")
		refs     = flag.Int("refs", 2000, "measured references per spec (small: the bench measures serving, not simulating)")
		prewarm  = flag.Bool("prewarm", true, "submit every spec once before measuring, so the window exercises the cache/coalesce hot paths")
		poll     = flag.Duration("poll", time.Millisecond, "job-status poll interval")
		retryMax = flag.Int("retry-max", 4, "503 retries per request before counting it refused (-1 disables)")
		retryBas = flag.Duration("retry-base", 25*time.Millisecond, "first-retry backoff; doubles per attempt with deterministic jitter")
		retryCap = flag.Duration("retry-cap", time.Second, "backoff ceiling (also clamps the server's Retry-After hint)")
		stats    = flag.Duration("stats-poll", 0, "add a monitoring client that GETs /v1/stats on this period (0 = off)")
		outPath  = flag.String("out", "", "write the JSON summary to this file (default stdout)")
		commit   = flag.String("commit", "", "commit hash recorded in the summary")
		slowestN = flag.Int("slowest", 5, "record the N slowest requests' trace IDs in the summary (0 = off)")

		// Self-host sizing (ignored with -addr).
		shWorkers = flag.Int("workers", 2, "self-host: concurrent simulations")
		shQueue   = flag.Int("queue", 64, "self-host: job queue depth")
		shCache   = flag.String("cache-dir", "", "self-host: cache directory (empty = fresh temp dir)")

		// Pre-PR comparison, filled in by the bench script when a
		// baseline measurement exists (see EXPERIMENTS.md).
		preP99     = flag.Float64("prepr-p99-ms", 0, "baseline p99 ms from the pre-PR build (0 = unrecorded)")
		preGoodput = flag.Float64("prepr-goodput-rps", 0, "baseline goodput from the pre-PR build (0 = unrecorded)")
	)
	flag.Parse()

	if err := validate(*clients, *rate, *duration, *requests, *specs, *zipfS, *refs, *poll, *retryBas, *retryCap); err != nil {
		fmt.Fprintln(os.Stderr, "coltload:", err)
		flag.Usage()
		os.Exit(2)
	}
	addrList, err := parseAddrs(*addrs, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coltload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(config{
		addr: *addr, addrs: addrList, clients: *clients, rate: *rate, duration: *duration,
		requests: *requests, specs: *specs, zipfS: *zipfS, seed: *seed,
		experiment: *expName, refs: *refs, prewarm: *prewarm, poll: *poll, statsPoll: *stats,
		retryMax: *retryMax, retryBase: *retryBas, retryCap: *retryCap,
		out: *outPath, commit: *commit, slowest: *slowestN,
		shWorkers: *shWorkers, shQueue: *shQueue, shCache: *shCache,
		preP99: *preP99, preGoodput: *preGoodput,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "coltload:", err)
		os.Exit(1)
	}
}

// validate rejects nonsensical flags before anything runs, naming the
// offending flag.
func validate(clients int, rate float64, duration time.Duration, requests, specs int, zipfS float64, refs int, poll, retryBase, retryCap time.Duration) error {
	if clients < 1 {
		return fmt.Errorf("-clients must be >= 1, got %d", clients)
	}
	if rate < 0 {
		return fmt.Errorf("-rate must be >= 0, got %g", rate)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", duration)
	}
	if requests < 0 {
		return fmt.Errorf("-requests must be >= 0, got %d", requests)
	}
	if specs < 1 {
		return fmt.Errorf("-specs must be >= 1, got %d", specs)
	}
	if zipfS < 0 {
		return fmt.Errorf("-zipf-s must be >= 0, got %g", zipfS)
	}
	if refs < 1 {
		return fmt.Errorf("-refs must be >= 1, got %d", refs)
	}
	if poll <= 0 {
		return fmt.Errorf("-poll must be positive, got %v", poll)
	}
	if retryBase <= 0 {
		return fmt.Errorf("-retry-base must be positive, got %v", retryBase)
	}
	if retryCap < retryBase {
		return fmt.Errorf("-retry-cap (%v) must be >= -retry-base (%v)", retryCap, retryBase)
	}
	return nil
}

// parseAddrs expands -addrs into a target list and rejects the
// ambiguous case of both -addr and -addrs.
func parseAddrs(addrs, addr string) ([]string, error) {
	if addrs == "" {
		return nil, nil
	}
	if addr != "" {
		return nil, fmt.Errorf("-addr and -addrs are mutually exclusive")
	}
	var out []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.HasPrefix(a, "http://") && !strings.HasPrefix(a, "https://") {
			return nil, fmt.Errorf("-addrs entry %q must be a base URL (http://host:port)", a)
		}
		out = append(out, strings.TrimRight(a, "/"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-addrs %q names no targets", addrs)
	}
	return out, nil
}

type config struct {
	addr       string
	addrs      []string
	clients    int
	rate       float64
	duration   time.Duration
	requests   int
	specs      int
	zipfS      float64
	seed       uint64
	experiment string
	refs       int
	prewarm    bool
	poll       time.Duration
	statsPoll  time.Duration
	retryMax   int
	retryBase  time.Duration
	retryCap   time.Duration
	out        string
	commit     string
	slowest    int
	shWorkers  int
	shQueue    int
	shCache    string
	preP99     float64
	preGoodput float64
}

// slowEntry names one slow-tail request in the summary: the trace ID
// the server returned lets an operator grep coltd's structured logs
// and hit /v1/jobs/{id}/timeline for exactly that request.
type slowEntry struct {
	TraceID string  `json:"trace_id"`
	Ms      float64 `json:"ms"`
}

// nodeSummary is one fleet member's slice of a multi-node run: the
// generator-side goodput/latency it served, plus the cluster counters
// scraped from its own /metrics — how much of its traffic arrived as
// ownership proxies and peer cache fills.
type nodeSummary struct {
	Addr            string  `json:"addr"`
	GoodputRPS      float64 `json:"goodput_rps"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	Requests        int     `json:"requests"`
	Done            int     `json:"done"`
	Refused         int     `json:"refused,omitempty"`
	Errors          int     `json:"errors,omitempty"`
	ProxiedSubmits  float64 `json:"proxied_submits"`
	PeerFillOK      float64 `json:"peer_fill_ok"`
	PeerFillMiss    float64 `json:"peer_fill_miss,omitempty"`
	PeerFillCorrupt float64 `json:"peer_fill_corrupt,omitempty"`
}

// summary is the BENCH_serve.json schema (EXPERIMENTS.md).
type summary struct {
	P50Ms           float64       `json:"p50_ms"`
	P99Ms           float64       `json:"p99_ms"`
	P999Ms          float64       `json:"p999_ms"`
	GoodputRPS      float64       `json:"goodput_rps"`
	Requests        int           `json:"requests"`
	Accepted        int           `json:"accepted"`
	Refused         int           `json:"refused"`
	Errors          int           `json:"errors"`
	Done            int           `json:"done"`
	Retries         int           `json:"retries"`
	BackoffMs       float64       `json:"backoff_ms"`
	CacheHitRate    float64       `json:"cache_hit_rate"`
	CoalesceRate    float64       `json:"coalesce_rate"`
	ZipfS           float64       `json:"zipf_s"`
	Specs           int           `json:"specs"`
	Clients         int           `json:"clients"`
	RateRPS         float64       `json:"rate_rps,omitempty"`
	DurationS       float64       `json:"duration_s"`
	Mode            string        `json:"mode"`
	Nodes           []nodeSummary `json:"nodes,omitempty"`
	Slowest         []slowEntry   `json:"slowest,omitempty"`
	MetricsSeries   int           `json:"metrics_series,omitempty"`
	PreprP99Ms      float64       `json:"prepr_p99_ms,omitempty"`
	PreprGoodputRPS float64       `json:"prepr_goodput_rps,omitempty"`
	SpeedupGoodput  float64       `json:"speedup_goodput,omitempty"`
	SpeedupP99      float64       `json:"speedup_p99,omitempty"`
	Commit          string        `json:"commit"`
}

func run(cfg config) error {
	base := cfg.addr
	if base == "" && len(cfg.addrs) > 0 {
		base = cfg.addrs[0] // metrics scrape + self-host suppression
	}
	if base == "" {
		cacheDir := cfg.shCache
		if cacheDir == "" {
			dir, err := os.MkdirTemp("", "coltload-cache-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			cacheDir = dir
		}
		// The self-hosted bench runs with structured logging enabled —
		// the A/B numbers must price in the observability the daemon
		// ships with — but the stream goes to a buffered file (slog's
		// handler serializes writes, so one bufio.Writer is safe), the
		// way a production log shipper receives it: the bench pays for
		// encoding every line, not a synchronous syscall per admission.
		logPath := filepath.Join(cacheDir, "coltd.log.jsonl")
		logFile, err := os.Create(logPath)
		if err != nil {
			return err
		}
		logBuf := bufio.NewWriterSize(logFile, 1<<20)
		defer func() {
			logBuf.Flush()
			logFile.Close()
		}()
		s, err := server.NewServer(server.Config{
			CacheDir:   cacheDir,
			QueueDepth: cfg.shQueue,
			Workers:    cfg.shWorkers,
			Logger:     slog.New(slog.NewJSONHandler(logBuf, nil)),
		})
		if err != nil {
			return err
		}
		defer s.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: s.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "coltload: self-hosting on %s (workers=%d queue=%d)\n",
			base, cfg.shWorkers, cfg.shQueue)
	}

	mode := "closed"
	if cfg.rate > 0 {
		mode = "open"
	}
	if len(cfg.addrs) > 1 {
		fmt.Fprintf(os.Stderr, "coltload: round-robin across %d nodes: %s\n",
			len(cfg.addrs), strings.Join(cfg.addrs, " "))
	}
	fmt.Fprintf(os.Stderr, "coltload: %s loop, %d clients, %d specs, zipf_s=%g, %v window (prewarm=%v)\n",
		mode, cfg.clients, cfg.specs, cfg.zipfS, cfg.duration, cfg.prewarm)

	res, err := loadgen.Run(loadgen.Config{
		BaseURL:       base,
		BaseURLs:      cfg.addrs,
		Clients:       cfg.clients,
		Rate:          cfg.rate,
		Duration:      cfg.duration,
		MaxRequests:   cfg.requests,
		Specs:         cfg.specs,
		ZipfS:         cfg.zipfS,
		Seed:          cfg.seed,
		PollInterval:  cfg.poll,
		Prewarm:       cfg.prewarm,
		StatsInterval: cfg.statsPoll,
		RetryMax:      cfg.retryMax,
		RetryBase:     cfg.retryBase,
		RetryCap:      cfg.retryCap,
		Template: server.Spec{
			Experiment: cfg.experiment,
			Quick:      true,
			Refs:       cfg.refs,
			Seed:       1,
		},
	})
	if err != nil {
		return err
	}

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	sum := summary{
		P50Ms:        ms(res.P50),
		P99Ms:        ms(res.P99),
		P999Ms:       ms(res.P999),
		GoodputRPS:   round2(res.GoodputRPS),
		Requests:     res.Requests,
		Accepted:     res.Accepted,
		Refused:      res.Refused,
		Errors:       res.Errors,
		Done:         res.Done,
		Retries:      res.Retries,
		BackoffMs:    ms(res.Backoff),
		CacheHitRate: round4(res.CacheHitRate),
		CoalesceRate: round4(res.CoalesceRate),
		ZipfS:        cfg.zipfS,
		Specs:        cfg.specs,
		Clients:      cfg.clients,
		RateRPS:      cfg.rate,
		DurationS:    round2(res.Elapsed.Seconds()),
		Mode:         mode,
		Commit:       cfg.commit,
	}
	for _, s := range res.SlowestN(cfg.slowest) {
		sum.Slowest = append(sum.Slowest, slowEntry{TraceID: s.TraceID, Ms: ms(s.Latency)})
	}
	for _, tr := range res.PerTarget {
		ns := nodeSummary{
			Addr:       tr.BaseURL,
			GoodputRPS: round2(tr.GoodputRPS),
			P50Ms:      ms(tr.P50),
			P99Ms:      ms(tr.P99),
			Requests:   tr.Requests,
			Done:       tr.Done,
			Refused:    tr.Refused,
			Errors:     tr.Errors,
		}
		cc, cerr := scrapeClusterCounters(tr.BaseURL)
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "coltload: warning: cluster counters from %s: %v\n", tr.BaseURL, cerr)
		} else {
			ns.ProxiedSubmits = cc[`coltd_cluster_proxied_submits_total`]
			ns.PeerFillOK = cc[`coltd_cluster_peer_fill_total{outcome="ok"}`]
			ns.PeerFillMiss = cc[`coltd_cluster_peer_fill_total{outcome="miss"}`]
			ns.PeerFillCorrupt = cc[`coltd_cluster_peer_fill_total{outcome="corrupt"}`]
		}
		sum.Nodes = append(sum.Nodes, ns)
	}
	series, err := scrapeMetrics(base)
	if err != nil {
		// Against an external -addr target the daemon may predate
		// /metrics; self-hosted, a bad exposition is a real failure.
		if cfg.addr == "" {
			return fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		fmt.Fprintf(os.Stderr, "coltload: warning: scraping %s/metrics: %v\n", base, err)
	} else {
		sum.MetricsSeries = series
	}
	if cfg.preP99 > 0 && sum.P99Ms > 0 {
		sum.PreprP99Ms = cfg.preP99
		sum.SpeedupP99 = round2(cfg.preP99 / sum.P99Ms)
	}
	if cfg.preGoodput > 0 && sum.GoodputRPS > 0 {
		sum.PreprGoodputRPS = cfg.preGoodput
		sum.SpeedupGoodput = round2(sum.GoodputRPS / cfg.preGoodput)
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if cfg.out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(cfg.out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "coltload: wrote %s\n%s", cfg.out, b)
	return nil
}

// scrapeMetrics fetches base/metrics and runs a light validity pass
// over the exposition: every non-comment line must look like
// `name{labels} value` with a parseable value, and the page must
// carry coltd's own series. Returns the coltd_* sample count.
func scrapeMetrics(base string) (series int, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return 0, fmt.Errorf("malformed sample line %q", line)
		}
		name := line[:sp]
		if c := name[0]; !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return 0, fmt.Errorf("malformed metric name in %q", line)
		}
		if _, perr := strconv.ParseFloat(line[sp+1:], 64); perr != nil {
			return 0, fmt.Errorf("malformed sample value in %q: %v", line, perr)
		}
		if strings.HasPrefix(name, "coltd_") {
			series++
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if series == 0 {
		return 0, fmt.Errorf("exposition carries no coltd_* series")
	}
	return series, nil
}

// scrapeClusterCounters fetches one node's /metrics and returns its
// coltd_cluster_* samples keyed by full series name (labels
// included), e.g. `coltd_cluster_peer_fill_total{outcome="ok"}`.
func scrapeClusterCounters(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "coltd_cluster_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, perr := strconv.ParseFloat(line[sp+1:], 64)
		if perr != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
func round4(x float64) float64 { return float64(int64(x*10000+0.5)) / 10000 }
