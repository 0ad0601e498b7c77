// Command coltload drives one or more running coltd daemons with a
// zipf-skewed stream of job submissions and reports served latency
// percentiles, goodput, refusal counts, cache/coalesce hit rates, the
// slowest requests' trace IDs, and — against a fleet — a per-node
// breakdown with each node's scraped coltd_cluster_* counters
// (EXPERIMENTS.md, "Driving running daemons").
//
// -addrs names the targets: one base URL, or several that submissions
// round-robin across. Two loops: closed (default; each of -clients
// issues its next request when the previous finishes) and open (-rate
// R dispatches R arrivals/sec regardless of completions). The spec
// universe is -specs variants of one template spec differing only in
// seed, with popularity zipf(-zipf-s): item 0 is the hot key. Every
// sampler is seeded from -seed via internal/rng streams, so a run's
// request sequences are deterministic.
//
// coltload is a driver, not a benchmark: the repository benchmark
// (bench/) is the measurement path for comparing two commits.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"colt/internal/loadgen"
	"colt/internal/server"
)

func main() {
	var (
		addrs    = flag.String("addrs", "", "comma-separated base URLs of the target daemons (required; e.g. http://127.0.0.1:8077); with several, submissions round-robin across them and the summary gains a per-node breakdown")
		clients  = flag.Int("clients", 16, "closed-loop concurrency")
		rate     = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		duration = flag.Duration("duration", 5*time.Second, "measured window")
		requests = flag.Int("requests", 0, "optional total-request cap (0 = duration-bounded only)")
		specs    = flag.Int("specs", 64, "spec-universe size (distinct content hashes)")
		zipfS    = flag.Float64("zipf-s", 1.1, "zipf popularity exponent (0 = uniform)")
		seed     = flag.Uint64("seed", 1, "root seed for the deterministic samplers")
		expName  = flag.String("experiment", "table1", "experiment submitted by every spec")
		refs     = flag.Int("refs", 2000, "measured references per spec (small keeps the load on serving, not simulating)")
		prewarm  = flag.Bool("prewarm", true, "submit every spec once before measuring, so the window exercises the cache/coalesce hot paths")
		poll     = flag.Duration("poll", time.Millisecond, "job-status poll interval")
		retryMax = flag.Int("retry-max", 4, "503 retries per request before counting it refused (-1 disables)")
		retryBas = flag.Duration("retry-base", 25*time.Millisecond, "first-retry backoff; doubles per attempt with deterministic jitter")
		retryCap = flag.Duration("retry-cap", time.Second, "backoff ceiling (also clamps the server's Retry-After hint)")
		outPath  = flag.String("out", "", "write the JSON summary to this file (default stdout)")
		slowestN = flag.Int("slowest", 5, "record the N slowest requests' trace IDs in the summary (0 = off)")
	)
	flag.Parse()

	if err := validate(*clients, *rate, *duration, *requests, *specs, *zipfS, *refs, *poll, *retryBas, *retryCap); err != nil {
		fmt.Fprintln(os.Stderr, "coltload:", err)
		flag.Usage()
		os.Exit(2)
	}
	addrList, err := parseAddrs(*addrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coltload:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(config{
		addrs: addrList, clients: *clients, rate: *rate, duration: *duration,
		requests: *requests, specs: *specs, zipfS: *zipfS, seed: *seed,
		experiment: *expName, refs: *refs, prewarm: *prewarm, poll: *poll,
		retryMax: *retryMax, retryBase: *retryBas, retryCap: *retryCap,
		out: *outPath, slowest: *slowestN,
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

// parseAddrs expands -addrs into a target list.
func parseAddrs(addrs string) ([]string, error) {
	if addrs == "" {
		return nil, fmt.Errorf("-addrs is required")
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
	retryMax   int
	retryBase  time.Duration
	retryCap   time.Duration
	out        string
	slowest    int
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

// summary is the JSON coltload prints (EXPERIMENTS.md, "Driving
// running daemons").
type summary struct {
	P50Ms        float64       `json:"p50_ms"`
	P99Ms        float64       `json:"p99_ms"`
	P999Ms       float64       `json:"p999_ms"`
	GoodputRPS   float64       `json:"goodput_rps"`
	Requests     int           `json:"requests"`
	Accepted     int           `json:"accepted"`
	Refused      int           `json:"refused"`
	Errors       int           `json:"errors"`
	Done         int           `json:"done"`
	Retries      int           `json:"retries"`
	BackoffMs    float64       `json:"backoff_ms"`
	CacheHitRate float64       `json:"cache_hit_rate"`
	CoalesceRate float64       `json:"coalesce_rate"`
	ZipfS        float64       `json:"zipf_s"`
	Specs        int           `json:"specs"`
	Clients      int           `json:"clients"`
	RateRPS      float64       `json:"rate_rps,omitempty"`
	DurationS    float64       `json:"duration_s"`
	Mode         string        `json:"mode"`
	Nodes        []nodeSummary `json:"nodes,omitempty"`
	Slowest      []slowEntry   `json:"slowest,omitempty"`
}

func run(cfg config) error {
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
		BaseURLs:     cfg.addrs,
		Clients:      cfg.clients,
		Rate:         cfg.rate,
		Duration:     cfg.duration,
		MaxRequests:  cfg.requests,
		Specs:        cfg.specs,
		ZipfS:        cfg.zipfS,
		Seed:         cfg.seed,
		PollInterval: cfg.poll,
		Prewarm:      cfg.prewarm,
		RetryMax:     cfg.retryMax,
		RetryBase:    cfg.retryBase,
		RetryCap:     cfg.retryCap,
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
