// Command coltd is the simulation-serving daemon: it exposes the
// experiment engine over HTTP/JSON with a bounded job queue, a
// content-addressed result cache, streaming per-job progress (SSE),
// and graceful drain on SIGTERM/SIGINT. README's "Serving" section
// has curl examples; EXPERIMENTS.md documents the job-spec schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"colt/internal/cluster"
	"colt/internal/fault"
	"colt/internal/server"
	"colt/internal/server/faultfs"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8077", "listen address (use :0 for an ephemeral port)")
		cacheDir     = flag.String("cache-dir", "", "content-addressed result cache directory (empty = memory-only)")
		queueDepth   = flag.Int("queue", 16, "job queue depth; a full queue refuses with 503")
		workers      = flag.Int("workers", 1, "concurrent simulations")
		parallel     = flag.Int("parallel", 0, "sched workers per simulation (0 = GOMAXPROCS)")
		maxRefs      = flag.Int("max-refs", 50_000_000, "per-request measured-reference ceiling (429 above; <0 disables)")
		retain       = flag.Int("retain", 1024, "terminal jobs kept queryable in the registry; oldest evicted first (reports persist in the cache)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "how long a signal-triggered drain waits for in-flight jobs")
		diskFaults   = flag.String("disk-faults", "", "inject deterministic disk faults, e.g. 'fsync-fail=0.1,rename-fail=0.05' (chaos testing; empty = off)")
		faultSeed    = flag.Uint64("disk-fault-seed", 1, "seed for the fault plane and Retry-After jitter streams")
		breaker      = flag.Int("breaker", 3, "consecutive disk-write failures that trip the memory-only circuit breaker (-1 never trips)")
		probe        = flag.Duration("probe-interval", 2*time.Second, "how often degraded mode re-probes the disk to close the breaker")
		logLevel     = flag.String("log-level", "info", "request-scoped JSON log level on stderr: debug, info, warn, error, or off")
		debugAddr    = flag.String("debug-addr", "", "optional second listener serving /debug/pprof/ and /metrics (empty = off; /metrics is always on the main address)")
		nodeID       = flag.String("node-id", "", "stable cluster identity for this node (required with -peers; single-node without them)")
		peers        = flag.String("peers", "", "comma-separated id=url cluster peers, e.g. 'n2=http://10.0.0.2:8077,n3=http://10.0.0.3:8077' (empty = unclustered)")
		heartbeat    = flag.Duration("heartbeat-interval", 500*time.Millisecond, "cluster gossip period")
	)
	flag.Parse()

	if err := validate(*queueDepth, *workers, *parallel, *retain, *drainTimeout, *breaker, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "coltd:", err)
		flag.Usage()
		os.Exit(2)
	}
	clusterCfg, err := clusterConfig(*nodeID, *peers, *heartbeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coltd:", err)
		flag.Usage()
		os.Exit(2)
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coltd:", err)
		flag.Usage()
		os.Exit(2)
	}
	faultSpec, err := fault.Parse(*diskFaults, faultfs.Ops())
	if err != nil {
		fmt.Fprintln(os.Stderr, "coltd: -disk-faults:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*addr, *debugAddr, server.Config{
		CacheDir:         *cacheDir,
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		Parallel:         *parallel,
		MaxRefs:          *maxRefs,
		RetainJobs:       *retain,
		DiskFaults:       faultSpec,
		DiskFaultSeed:    *faultSeed,
		BreakerThreshold: *breaker,
		ProbeInterval:    *probe,
		Logger:           logger,
		Cluster:          clusterCfg,
	}, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "coltd:", err)
		os.Exit(1)
	}
}

// buildLogger maps -log-level to the daemon's structured JSON logger
// on stderr. "off" returns nil (the server then discards the stream);
// anything unrecognized is a flag error.
func buildLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error, or off, got %q", level)
	}
	return slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// validate rejects nonsensical flag combinations before anything
// binds or forks, naming the offending flag.
func validate(queueDepth, workers, parallel, retain int, drainTimeout time.Duration, breaker int, probe time.Duration) error {
	if queueDepth < 1 {
		return fmt.Errorf("-queue must be >= 1, got %d", queueDepth)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d", workers)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if retain < 1 {
		return fmt.Errorf("-retain must be >= 1, got %d", retain)
	}
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", drainTimeout)
	}
	if breaker == 0 || breaker < -1 {
		return fmt.Errorf("-breaker must be >= 1 (or -1 to never trip), got %d", breaker)
	}
	if probe <= 0 {
		return fmt.Errorf("-probe-interval must be positive, got %v", probe)
	}
	return nil
}

// clusterConfig builds the cluster layer's config from the -node-id,
// -peers, and -heartbeat-interval flags, or nil when the daemon runs
// unclustered. A bare -node-id (no peers) is a single-node cluster:
// job IDs gain the node prefix, so the node can later be joined by
// peers without an ID-format change.
func clusterConfig(nodeID, peers string, heartbeat time.Duration) (*cluster.Config, error) {
	if nodeID == "" && peers == "" {
		return nil, nil
	}
	if nodeID == "" {
		return nil, fmt.Errorf("-peers requires -node-id")
	}
	// "." separates the node prefix from the job sequence in cluster
	// job IDs; "=" and "," would collide with the -peers syntax on
	// every other node's command line.
	if strings.ContainsAny(nodeID, ".=, \t") {
		return nil, fmt.Errorf("-node-id %q must not contain '.', '=', ',' or whitespace", nodeID)
	}
	if heartbeat <= 0 {
		return nil, fmt.Errorf("-heartbeat-interval must be positive, got %v", heartbeat)
	}
	peerMap, err := parsePeers(peers, nodeID)
	if err != nil {
		return nil, err
	}
	return &cluster.Config{
		NodeID:            nodeID,
		Peers:             peerMap,
		HeartbeatInterval: heartbeat,
	}, nil
}

// parsePeers parses the -peers value: comma-separated id=url pairs
// naming every *other* fleet member. A pair naming self is rejected
// (the likely cause is a copy-pasted peer list with the wrong
// -node-id), as are duplicates and non-HTTP URLs.
func parsePeers(s, self string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(pair, "=")
		if !ok || id == "" || rawURL == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=url", pair)
		}
		if id == self {
			return nil, fmt.Errorf("-peers entry %q names this node (-node-id %s); list only the other members", pair, self)
		}
		if strings.ContainsAny(id, ". \t") {
			return nil, fmt.Errorf("-peers id %q must not contain '.' or whitespace", id)
		}
		u, err := url.Parse(rawURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("-peers URL %q must be http(s)://host:port", rawURL)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("-peers lists %q twice", id)
		}
		out[id] = strings.TrimRight(rawURL, "/")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q names no peers", s)
	}
	return out, nil
}

// listenURL renders a bound listener address as a dialable URL. With
// -addr :0 (or any unspecified host) the kernel-chosen port comes
// back attached to "[::]" or "0.0.0.0", which curl and the cluster
// smoke script cannot dial as-is — substitute the loopback address so
// the startup line is always directly usable.
func listenURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// run serves until SIGTERM/SIGINT, then drains: admission stops, the
// in-flight jobs finish and land in the cache, still-queued jobs stay
// live in the journal for the next boot to replay, and only then does
// the HTTP listener shut down (so status/report endpoints answer
// throughout the drain).
func run(addr, debugAddr string, cfg server.Config, drainTimeout time.Duration) error {
	s, err := server.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The one parseable startup line; the smoke scripts and operators
	// reading logs rely on it to learn the bound port — with -addr :0
	// the URL carries the actual kernel-assigned port, loopback-hosted
	// so it is directly dialable.
	fmt.Printf("coltd: listening on %s\n", listenURL(ln.Addr()))

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The debug listener carries pprof and a second /metrics mount, so
	// profiling and scraping can live on an operator-only port while
	// the main address faces clients.
	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			httpSrv.Close()
			s.Close()
			return fmt.Errorf("-debug-addr: %w", err)
		}
		fmt.Printf("coltd: debug listening on %s\n", listenURL(dln.Addr()))
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", s.MetricsHandler())
		debugSrv = &http.Server{Handler: dmux}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "coltd: debug listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		s.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Println("coltd: draining (finishing in-flight jobs, leaving queued jobs journaled for replay)")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	if debugSrv != nil {
		debugSrv.Shutdown(drainCtx)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("coltd: drained cleanly")
	return nil
}
