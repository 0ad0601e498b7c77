package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/cluster"
	"colt/internal/experiments"
	"colt/internal/fault"
	"colt/internal/metrics"
	"colt/internal/obs"
	"colt/internal/rng"
	"colt/internal/server/faultfs"
	"colt/internal/telemetry"
)

// maxKeptReportBytes caps, across the server, the report bytes done
// jobs hold for their first fetch (Job.kept). A job that would pass
// it keeps nothing and its fetch reads the cache, so unfetched jobs
// never pin more than this; uncapped, the worst case would be
// RetainJobs times the largest report.
const maxKeptReportBytes = 64 << 20

// Config sizes the serving daemon. Zero values take the documented
// defaults.
type Config struct {
	// CacheDir roots the content-addressed result cache ("" =
	// memory-only; nothing survives a restart).
	CacheDir string
	// QueueDepth bounds the job queue (default 16). A full queue
	// refuses submissions with 503 + Retry-After.
	QueueDepth int
	// Workers is how many jobs simulate concurrently (default 1 —
	// simulations are themselves internally parallel).
	Workers int
	// MaxRefs is the per-request measured-reference ceiling (default
	// 50,000,000; <0 disables). Oversized submissions are refused with
	// 429 before touching the queue.
	MaxRefs int
	// Parallel is the sched worker count handed to each job
	// (0 = GOMAXPROCS). Never part of the cache key: reports are
	// byte-identical at every width.
	Parallel int
	// RetainJobs bounds how many terminal jobs stay queryable in the
	// registry (default 1024; floored at numShards). Oldest terminal
	// jobs are evicted first; queued and running jobs are never
	// evicted, and a done job's report outlives its registry entry in
	// the result cache. Without a bound the registry is an OOM under
	// sustained traffic.
	RetainJobs int
	// SSEFlushInterval paces batched SSE fan-out (default 25ms): each
	// subscriber drains the new slice of the event log once per tick
	// with a single flush, instead of one send+flush per event.
	SSEFlushInterval time.Duration
	// Registry is the experiment set to serve (default
	// experiments.Registry()). Tests stub it with fast fakes.
	Registry []experiments.NamedExperiment
	// DiskFaults injects deterministic filesystem faults into every
	// durable write (cache entries, journal appends and compactions) —
	// the chaos harness's disk-failure plane. Zero value disables.
	DiskFaults fault.Spec
	// DiskFaultSeed seeds the fault plane's per-site streams.
	DiskFaultSeed uint64
	// BreakerThreshold is how many consecutive durable-write failures
	// trip the disk circuit breaker into memory-only degraded mode
	// (default 3; <0 disables the breaker).
	BreakerThreshold int
	// ProbeInterval paces the degraded-mode disk re-probe (default
	// 2s). A successful probe flushes the memory overlay and closes
	// the breaker.
	ProbeInterval time.Duration
	// Cluster wires this daemon into a fleet (nil = single-node). In
	// cluster mode job IDs carry a "<node>." prefix, submissions are
	// proxied to their ring owner, and cache misses try peer fill
	// before recomputing.
	Cluster *cluster.Config
	// Logger receives the request-scoped structured log stream
	// (admission, execution, cache commit — every line carries the
	// job's trace ID). nil discards it, keeping tests and benchmarks
	// quiet; the process-lifecycle lines (startup, replay, breaker
	// transitions) stay on the standard logger regardless, because the
	// ops scripts parse them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.MaxRefs == 0 {
		c.MaxRefs = 50_000_000
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 1024
	}
	if c.RetainJobs < numShards {
		c.RetainJobs = numShards
	}
	if c.SSEFlushInterval == 0 {
		c.SSEFlushInterval = 25 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.Registry == nil {
		c.Registry = experiments.Registry()
	}
	return c
}

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrDraining: the daemon is shutting down and accepts no new work
	// (503 + Retry-After).
	ErrDraining = errors.New("server is draining")
	// ErrQueueFull: the bounded job queue is at capacity (503 +
	// Retry-After).
	ErrQueueFull = errors.New("job queue is full")
	// ErrTooLarge: the expanded spec exceeds the per-request reference
	// ceiling (429).
	ErrTooLarge = errors.New("spec exceeds the per-request reference ceiling")
)

// Server is the coltd core: admission, queue, execution, cache, and
// job registry. It serves HTTP via Handler (http.go) but is fully
// drivable without HTTP, which is how the unit tests exercise it.
//
// Concurrency layout: there is no global server lock. Admission state
// (the coalescing map) and the job registry are sharded by spec hash
// and job sequence respectively (shard.go); counters are atomics
// reconciled when Stats() reads them; the only whole-server lock is
// admitMu, a read/write gate that submissions hold shared for the
// instant of the queue send and Drain holds exclusive to close the
// queue — it orders admission against shutdown without serializing
// admissions against each other.
type Server struct {
	cfg   Config
	cache *Cache

	// fsys is the filesystem every durable write goes through; with
	// Config.DiskFaults enabled it wraps the OS in the fault plane.
	fsys  faultfs.FS
	plane *faultfs.Plane
	// journal is the accepted-job WAL (nil in memory-only mode).
	journal *Journal

	baseCtx context.Context
	stop    context.CancelFunc

	// admitMu orders queue sends against Drain's close(queue):
	// submissions hold it shared, drain holds it exclusive.
	admitMu  sync.RWMutex
	draining atomic.Bool

	admit [numShards]admitShard
	reg   [numShards]regShard

	nextID         atomic.Uint64
	queueSlots     atomic.Int64 // remaining queue capacity; admission wins a slot before minting an ID
	simulations    atomic.Uint64
	coalesced      atomic.Uint64
	pendingDropped atomic.Uint64 // journaled jobs a restart's replay could not resubmit
	deadlineShed   atomic.Uint64 // jobs shed or canceled for blowing their deadline

	// Disk circuit breaker: consecutive durable-write failures trip it
	// (degraded = memory-only serving); the probe loop closes it.
	diskFailures    atomic.Int64
	degraded        atomic.Bool
	degradedEvents  atomic.Uint64
	journalReplayed atomic.Uint64
	journalSkipped  atomic.Uint64 // jobs admitted without a durable accept record

	retainPerShard int

	// keptBytes counts the report bytes done jobs hold for their first
	// fetch; keepReport never lets it pass keptLimit
	// (maxKeptReportBytes; tests lower it).
	keptBytes atomic.Int64
	keptLimit int64

	// retryRng jitters Retry-After values so a crowd of refused
	// clients doesn't return in one synchronized wave.
	retryRngMu sync.Mutex
	retryRng   *rng.RNG

	probeStop chan struct{}

	queue chan *Job
	wg    sync.WaitGroup

	drainOnce sync.Once
	drainErr  error

	ep *endpointMetrics

	// om is the /metrics registry and its instruments; slog is the
	// request-scoped structured log stream (see Config.Logger).
	om   *serverMetrics
	slog *slog.Logger

	// Cluster mode (both zero when Config.Cluster is nil). idPrefix
	// is "<node>." so job IDs are fleet-unique and reads route by
	// prefix.
	cluster  *cluster.Cluster
	idPrefix string
}

// NewServer builds a server, opens (or creates) its cache and
// accepted-job journal, replays the journaled work a prior run left
// unresolved — a crash's in-flight and queued jobs, a drain's queued
// ones — and starts its workers and disk-probe loop.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fsys := faultfs.OS()
	plane := faultfs.NewPlane(cfg.DiskFaults, cfg.DiskFaultSeed)
	fsys = faultfs.Faulty(fsys, plane)
	c, err := OpenCacheFS(cfg.CacheDir, fsys)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:            cfg,
		cache:          c,
		fsys:           fsys,
		plane:          plane,
		baseCtx:        ctx,
		stop:           stop,
		retainPerShard: cfg.RetainJobs / numShards,
		keptLimit:      maxKeptReportBytes,
		queue:          make(chan *Job, cfg.QueueDepth),
		retryRng:       rng.New(cfg.DiskFaultSeed ^ 0x5261667465724a6a).Stream("retry-after"),
		probeStop:      make(chan struct{}),
	}
	s.slog = cfg.Logger
	if s.slog == nil {
		s.slog = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.queueSlots.Store(int64(cfg.QueueDepth))
	// Cluster wiring happens in two steps: identity (the ID prefix)
	// must exist before journal replay mints any job, while the
	// heartbeat loop starts only once the server can actually execute
	// work, at the bottom of this constructor.
	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		if cc.Logger == nil {
			cc.Logger = s.slog
		}
		cl, err := cluster.New(cc, s)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.cluster = cl
		s.idPrefix = cc.NodeID + "."
	}
	for i := range s.admit {
		s.admit[i].byHash = make(map[string]*Job)
	}
	for i := range s.reg {
		s.reg[i].jobs = make(map[string]*Job)
	}
	// Register the metric inventory before any worker, handler, or
	// replay runs: registration is the only locked phase of the
	// registry's life. The journal Func collectors nil-check at scrape
	// time, so registering before openJournal is safe.
	s.om = newServerMetrics(s)
	s.ep = newEndpointMetrics(s.om)
	var replay []journalLive
	if cfg.CacheDir != "" {
		jl, live, err := openJournal(fsys, cfg.CacheDir)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.journal = jl
		replay = live
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if err := s.replayJournal(replay); err != nil {
		s.stop()
		return nil, err
	}
	go s.probeLoop()
	if s.cluster != nil {
		s.cluster.Start()
	}
	return s, nil
}

// replayJournal resubmits the accepted-but-unresolved jobs of a prior
// run, in first-accept order. Each resubmission re-accepts itself
// under the same content hash (duplicates collapse), and a spec whose
// report landed in the cache before the crash completes instantly as
// a cache hit — replay is idempotent, never a recompute storm. A
// momentarily full queue is retried briefly (workers free slots as
// they dequeue); what still cannot be admitted is counted in
// PendingDropped rather than silently vanishing. A record refused for
// any reason but a full queue (an experiment the registry no longer
// knows, a spec past MaxRefs) is committed once counted, so it is
// dropped once, not on every boot; a queue-full drop stays live and
// is retried by the next boot. A spec that now canonicalizes under
// another hash (the canonical form changed between versions) is
// tracked under that hash from then on, so its record is committed
// once the resubmission is durable on its own: a cache hit, or a job
// whose accept record landed.
func (s *Server) replayJournal(replay []journalLive) error {
	if s.journal == nil || len(replay) == 0 {
		return nil
	}
	dropped := 0
	for _, rec := range replay {
		var res SubmitResult
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			// Resubmit under the original trace ID, so the replayed run
			// greps as a continuation of the crashed request.
			if res, err = s.SubmitTraced(rec.Spec, rec.Trace); !errors.Is(err, ErrQueueFull) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			dropped++
			log.Printf("server: dropping journaled job (experiment %q): %v", rec.Spec.Experiment, err)
			if !errors.Is(err, ErrQueueFull) {
				s.journalCommit(rec.Hash)
			}
			continue
		}
		s.journalReplayed.Add(1)
		if res.Job.Can.Hash != rec.Hash && (res.Cached || res.Job.hasMark("journaled")) {
			s.journalCommit(rec.Hash)
		}
	}
	if dropped > 0 {
		s.pendingDropped.Add(uint64(dropped))
	}
	log.Printf("journal: replayed %d accepted jobs from a prior run (%d dropped)",
		s.journalReplayed.Load(), dropped)
	// The replayed WAL carries a full accept/commit history plus the
	// duplicate accepts just written; rewrite it to the live set.
	if err := s.journal.Compact(); err != nil {
		s.noteDiskOp(err)
		log.Printf("server: journal compaction after replay failed: %v", err)
	}
	return nil
}

// Cache exposes the result cache (read-mostly: stats and report
// serving).
func (s *Server) Cache() *Cache { return s.cache }

// Job looks up a tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	return s.lookupJob(id)
}

// SubmitResult describes the outcome of an admission decision.
type SubmitResult struct {
	Job *Job
	// Created is false when the submission coalesced onto an existing
	// queued/running job with the same content hash.
	Created bool
	// Cached is true when the result was already in the cache and the
	// job completed without queueing.
	Cached bool
	// ReportSum is the SHA-256 admission verified a cache hit's report
	// against ("" unless Cached).
	ReportSum string
}

// Submit canonicalizes, admits, and routes a job spec: cache hits
// complete immediately, identical in-flight specs coalesce onto one
// execution, and everything else takes a queue slot or is refused
// (ErrDraining, ErrQueueFull, ErrTooLarge — the handler maps these to
// 503/503/429; any other error is a 400 validation failure).
//
// The whole decision runs under the spec's admission shard lock only:
// submissions of distinct specs are admitted concurrently, while
// identical specs serialize just enough to guarantee one execution.
// A queue slot is won (reserveSlot) before a job ID is minted, so a
// refused submission consumes neither an ID nor a registry entry.
func (s *Server) Submit(spec Spec) (SubmitResult, error) {
	return s.SubmitTraced(spec, "")
}

// SubmitTraced is Submit with an explicit request-scoped trace ID —
// the HTTP layer passes a validated inbound X-Colt-Trace, journal
// replay passes the crashed run's recorded ID. An empty or invalid
// trace is replaced with a freshly minted one; every admission
// outcome, accepted or refused, is logged and counted under it.
func (s *Server) SubmitTraced(spec Spec, trace string) (SubmitResult, error) {
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	// Admission log lines are emitted by this deferred hook, which
	// runs after every lock below is released (defers are LIFO): the
	// slog handler serializes writes process-wide, and emitting while
	// holding a hot admission shard would put the logger's mutex and
	// encoding on the admission critical path.
	var logAfter func()
	defer func() {
		if logAfter != nil {
			logAfter()
		}
	}()
	can, err := Canonicalize(spec, s.cfg.Registry)
	if err != nil {
		s.om.admitInvalid.Inc()
		logAfter = func() {
			s.slog.Warn("admission refused", "trace", trace, "outcome", "invalid",
				"experiment", spec.Experiment, "error", err.Error())
		}
		return SubmitResult{}, err
	}
	if s.cfg.MaxRefs > 0 && can.Opts.Refs > s.cfg.MaxRefs {
		s.om.admitTooLarge.Inc()
		logAfter = func() {
			s.slog.Warn("admission refused", "trace", trace, "outcome", "too_large",
				"experiment", can.Exp.Name, "refs", can.Opts.Refs)
		}
		return SubmitResult{}, fmt.Errorf("%w: refs %d > limit %d",
			ErrTooLarge, can.Opts.Refs, s.cfg.MaxRefs)
	}
	// Peer cache fill: in cluster mode a hash missing locally may be
	// sitting verified in a peer's cache — fetch it now, before any
	// admission lock is held (the network never runs under a shard
	// lock), so the admission below resolves as an ordinary cache hit.
	if s.cluster != nil {
		s.peerFill(can, trace)
	}

	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		s.om.admitDraining.Inc()
		logAfter = func() {
			s.slog.Warn("admission refused", "trace", trace, "outcome", "draining",
				"experiment", can.Exp.Name)
		}
		return SubmitResult{}, ErrDraining
	}
	sh := s.admitShardFor(can.Hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Coalesce onto an identical in-flight execution.
	if j, ok := sh.byHash[can.Hash]; ok {
		if !j.stateFast().terminal() {
			j.noteCoalesced()
			s.coalesced.Add(1)
			s.om.admitCoalesced.Inc()
			onto, id := j.TraceID(), j.ID
			logAfter = func() {
				s.slog.Info("admission coalesced", "trace", trace, "onto_trace", onto,
					"job", id, "experiment", can.Exp.Name, "hash", can.Hash)
			}
			return SubmitResult{Job: j, Created: false}, nil
		}
		delete(sh.byHash, can.Hash)
	}
	now := time.Now()
	// Serve from cache: the read verifies the stored bytes against
	// their recorded hash, so a corrupted entry falls through to
	// recompute. The job keeps the verified bytes for its first fetch.
	if b, sum, ok := s.cache.GetSum(can.Hash); ok {
		j := s.newTrackedJob(can, now, trace, &keptReport{b: b, sum: sum})
		// Resolve any live journal record for this hash — a replayed
		// accept whose report landed before the crash completes here,
		// as a hit, and must not be replayed forever. For ordinary hits
		// this is a no-op map probe.
		s.journalCommit(can.Hash)
		s.om.admitCacheHit.Inc()
		logAfter = func() {
			s.slog.Info("job admitted", "trace", trace, "outcome", "cache_hit",
				"job", j.ID, "experiment", can.Exp.Name, "hash", can.Hash)
		}
		return SubmitResult{Job: j, Created: true, Cached: true, ReportSum: sum}, nil
	}
	// Win a queue slot before minting an ID or constructing the job:
	// refusals must leave no trace.
	if !s.reserveSlot() {
		s.om.admitQueueFull.Inc()
		logAfter = func() {
			s.slog.Warn("admission refused", "trace", trace, "outcome", "queue_full",
				"experiment", can.Exp.Name)
		}
		return SubmitResult{}, ErrQueueFull
	}
	j := s.newTrackedJob(can, now, trace, nil)
	if can.Spec.DeadlineMs > 0 {
		j.deadline = now.Add(time.Duration(can.Spec.DeadlineMs) * time.Millisecond)
	}
	// Durably record the accept before the submission returns: this is
	// the write-ahead point that makes a crash lose nothing that was
	// acknowledged. An append failure degrades rather than refuses —
	// the job still runs, the breaker hears about the disk — and while
	// the breaker is open appends are suppressed entirely.
	if s.journalAccept(can, trace) {
		j.mark("journaled", time.Now())
	}
	sh.byHash[can.Hash] = j
	j.mark("queued", time.Now())
	// Cannot block (a slot is held) and cannot hit a closed channel
	// (admitMu is read-held; Drain closes under the write lock).
	s.queue <- j
	s.om.admitAccepted.Inc()
	logAfter = func() {
		s.slog.Info("job admitted", "trace", trace, "outcome", "accepted",
			"job", j.ID, "experiment", can.Exp.Name, "hash", can.Hash)
	}
	return SubmitResult{Job: j, Created: true}, nil
}

// journalAccept writes the admission WAL record for a spec, feeding
// the disk breaker with the outcome. Jobs admitted without a durable
// record (breaker open, or the append itself failed) are counted.
// Reports whether a durable record landed.
func (s *Server) journalAccept(can CanonicalJob, trace string) bool {
	if s.journal == nil {
		return false
	}
	if s.degraded.Load() {
		s.journalSkipped.Add(1)
		return false
	}
	if err := s.journal.Accept(can.Hash, can.Spec, trace); err != nil {
		s.journalSkipped.Add(1)
		s.noteDiskOp(err)
		log.Printf("server: journal accept failed (job runs without durability): %v", err)
		return false
	}
	s.noteDiskOp(nil)
	return true
}

// journalCommit resolves a spec's WAL record, feeding the breaker.
// Committing a hash with no live record is a no-op, so double commits
// (a DELETE racing the execution path) and commits for jobs accepted
// while degraded are harmless.
func (s *Server) journalCommit(hash string) {
	if s.journal == nil || s.degraded.Load() {
		return
	}
	if err := s.journal.Commit(hash); err != nil {
		s.noteDiskOp(err)
		log.Printf("server: journal commit failed: %v", err)
		return
	}
	s.noteDiskOp(nil)
}

// noteDiskOp feeds the disk circuit breaker: consecutive durable-
// write failures at or past Config.BreakerThreshold flip the server
// into memory-only degraded mode instead of letting a dying disk take
// the process down. The probe loop is the only way back.
func (s *Server) noteDiskOp(err error) {
	if err == nil {
		s.diskFailures.Store(0)
		return
	}
	n := s.diskFailures.Add(1)
	if s.cfg.BreakerThreshold < 0 || int(n) < s.cfg.BreakerThreshold {
		return
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.cache.setDegraded(true)
		s.degradedEvents.Add(1)
		log.Printf("server: disk circuit breaker OPEN after %d consecutive write failures; serving memory-only (last: %v)", n, err)
	}
}

// probeLoop is degraded mode's way home: every Config.ProbeInterval
// it rewrites a probe file through the (possibly faulty) filesystem,
// and on success flushes the memory overlay to disk and closes the
// breaker. Runs until shutdown; does nothing while healthy.
func (s *Server) probeLoop() {
	if s.cfg.CacheDir == "" {
		return
	}
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	probe := filepath.Join(s.cfg.CacheDir, ".probe")
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.probeStop:
			return
		case <-ticker.C:
		}
		if !s.degraded.Load() {
			continue
		}
		if err := faultfs.WriteFileSync(s.fsys, probe, []byte("ok\n")); err != nil {
			continue // still hostile; stay degraded
		}
		// Re-point new Puts at the disk first, then land what the
		// overlay accumulated — no window where a fresh Put is stranded
		// in memory behind an already-finished flush.
		s.cache.setDegraded(false)
		if n, err := s.cache.FlushOverlay(); err != nil {
			log.Printf("server: disk probe passed but overlay flush failed after %d entries: %v", n, err)
			s.cache.setDegraded(true)
			continue
		} else if n > 0 {
			log.Printf("server: flushed %d overlay entries to disk", n)
		}
		s.degraded.Store(false)
		s.diskFailures.Store(0)
		s.fsys.Remove(probe)
		log.Printf("server: disk circuit breaker CLOSED; durable serving restored")
	}
}

// reserveSlot claims one unit of queue capacity, failing when the
// queue is full. The matching release happens when a worker dequeues
// the job.
func (s *Server) reserveSlot() bool {
	for {
		v := s.queueSlots.Load()
		if v <= 0 {
			return false
		}
		if s.queueSlots.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

func (s *Server) isDraining() bool { return s.draining.Load() }

// worker consumes the queue. Once a drain begins, undispatched jobs
// are left to the journal instead of executed; the job a worker is
// already inside when the drain starts runs to completion.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueSlots.Add(1) // the job left the queue; its slot frees
		if s.isDraining() {
			s.checkpoint(j)
			continue
		}
		// Deadline propagation, part one: a job whose client has
		// already given up is shed at dispatch, not simulated into a
		// report nobody is waiting for.
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			j.finish(JobCanceled, "deadline exceeded while queued", time.Now())
			s.dropInflight(j)
			s.deadlineShed.Add(1)
			s.journalCommit(j.Can.Hash)
			continue
		}
		s.execute(j)
	}
}

// checkpoint closes a job still queued at drain as canceled and
// leaves its accept record live, so the next boot's replay runs it. A
// job admitted without a record (breaker open, or its append failed)
// is journaled now — unless the breaker is open at drain, when the
// disk gets no writes and the job is lost like any unjournaled one.
func (s *Server) checkpoint(j *Job) {
	if !j.stateFast().terminal() {
		if s.journal != nil && !s.degraded.Load() && !s.journal.Has(j.Can.Hash) {
			s.journalAccept(j.Can, j.TraceID())
		}
		j.finish(JobCanceled, "queued at drain; replayed on restart", time.Now())
	}
	s.dropInflight(j)
}

func (s *Server) dropInflight(j *Job) {
	sh := s.admitShardFor(j.Can.Hash)
	sh.mu.Lock()
	if sh.byHash[j.Can.Hash] == j {
		delete(sh.byHash, j.Can.Hash)
	}
	sh.mu.Unlock()
}

// runSpec executes one canonical spec with a private collector and
// renders its byte-stable report. hook receives progress events (nil
// discards them); the returned trace is the Chrome artifact when the
// spec asked for one.
func (s *Server) runSpec(ctx context.Context, can CanonicalJob, hook func(telemetry.ProgressEvent)) (report, trace []byte, err error) {
	opts := can.Opts
	opts.Ctx = ctx
	opts.Parallel = s.cfg.Parallel
	opts.Metrics = metrics.NewCollector()
	reporter := telemetry.NewReporter(nil)
	if hook != nil {
		reporter.SetHook(hook)
	}
	opts.Progress = reporter
	if can.Spec.Trace {
		opts.Events = new(telemetry.TraceSet)
	}
	if err := can.Exp.Run(opts); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	b, err := opts.Metrics.Report(can.Exp.Name, opts.Snapshot()).StableJSON()
	if err != nil {
		return nil, nil, fmt.Errorf("rendering report: %v", err)
	}
	if opts.Events != nil {
		var buf bytes.Buffer
		if opts.Events.WriteChrome(&buf) == nil {
			trace = buf.Bytes()
		}
	}
	return b, trace, nil
}

// execute runs one job end to end: wire a private collector and
// progress reporter, run the experiment, render the byte-stable
// report, and store it under the job's content address. A canceled
// run is never cached — its partial report is not the true value of
// that content address.
func (s *Server) execute(j *Job) {
	defer s.dropInflight(j)
	ctx, cancel := context.WithCancel(s.baseCtx)
	if !j.deadline.IsZero() {
		// Deadline propagation, part two: the client's patience bounds
		// the run itself, not just the queue wait.
		ctx, cancel = context.WithDeadline(s.baseCtx, j.deadline)
	}
	defer cancel()
	if !j.start(cancel) {
		return // canceled while queued
	}
	s.simulations.Add(1)
	s.slog.Info("job running", "trace", j.TraceID(), "job", j.ID,
		"experiment", j.Can.Exp.Name, "hash", j.Can.Hash)

	b, traceBuf, runErr := s.runSpec(ctx, j.Can, j.appendEvent)
	now := time.Now()
	if ctx.Err() != nil {
		// Which cancellation was it? User cancels and blown deadlines
		// are resolutions (commit the journal record); a shutdown
		// cancel is crash-equivalent — the record stays live so a
		// restart replays the job.
		msg := "canceled while running; partial results discarded"
		resolved := j.wasUserCanceled()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			msg = "deadline exceeded while running; partial results discarded"
			resolved = true
			s.deadlineShed.Add(1)
		}
		j.finish(JobCanceled, msg, now)
		if resolved {
			s.journalCommit(j.Can.Hash)
		}
		s.slog.Info("job finished", "trace", j.TraceID(), "job", j.ID, "state", "canceled", "reason", msg)
		return
	}
	if runErr != nil {
		j.finish(JobFailed, runErr.Error(), now)
		s.journalCommit(j.Can.Hash)
		s.slog.Warn("job finished", "trace", j.TraceID(), "job", j.ID, "state", "failed", "error", runErr.Error())
		return
	}
	// A disk-refused Put is not a failed job: the bytes land in the
	// memory overlay and serve from there, the breaker hears about the
	// disk, and the journal record stays live — after a crash the spec
	// recomputes, which is exactly what losing the disk copy means.
	sum, err := s.cache.PutSum(j.Can.Hash, j.Can.Exp.Name, b)
	if err != nil {
		s.noteDiskOp(err)
		log.Printf("server: cache write failed (serving from memory): %v", err)
		s.slog.Warn("cache commit", "trace", j.TraceID(), "job", j.ID,
			"hash", j.Can.Hash, "bytes", len(b), "durable", false, "error", err.Error())
	} else {
		s.noteDiskOp(nil)
		s.journalCommit(j.Can.Hash)
		s.slog.Info("cache commit", "trace", j.TraceID(), "job", j.ID,
			"hash", j.Can.Hash, "bytes", len(b), "durable", true)
	}
	j.mark("committed", time.Now())
	if traceBuf != nil {
		j.setTrace(traceBuf)
	}
	// Keep before finishing: once done the job is evictable, and an
	// eviction must see what it holds.
	s.keepReport(j, &keptReport{b: b, sum: sum})
	j.finish(JobDone, "", time.Now())
	s.slog.Info("job finished", "trace", j.TraceID(), "job", j.ID, "state", "done")
}

// Report returns the job's report bytes. Only done jobs have one.
func (s *Server) Report(j *Job) ([]byte, bool) {
	b, _, ok := s.report(j)
	return b, ok
}

// report returns a done job's report bytes and their SHA-256. The
// first fetch takes the report the job kept, so a cache-hit request
// reads and verifies its entry once, at admission, and an executed
// job's first fetch reads nothing. A later fetch, or a job that kept
// nothing, reads and re-verifies the cache.
func (s *Server) report(j *Job) ([]byte, string, bool) {
	if st, _ := j.State(); st != JobDone {
		return nil, "", false
	}
	if k := s.takeKept(j); k != nil {
		return k.b, k.sum, true
	}
	return s.cache.GetSum(j.Can.Hash)
}

// keepReport lets j hold k for its first fetch, unless that would
// take the bytes held across the server past keptLimit; then j keeps
// nothing and its fetch reads the cache. Called before any other
// goroutine can fetch or evict j.
func (s *Server) keepReport(j *Job, k *keptReport) {
	n := int64(len(k.b))
	for {
		cur := s.keptBytes.Load()
		if cur+n > s.keptLimit {
			return
		}
		if s.keptBytes.CompareAndSwap(cur, cur+n) {
			break
		}
	}
	j.kept.Store(k)
}

// takeKept detaches j's kept report, if any, and releases its bytes.
// The first fetch and the registry eviction both call it; the swap
// hands the report to exactly one of them.
func (s *Server) takeKept(j *Job) *keptReport {
	k := j.kept.Swap(nil)
	if k != nil {
		s.keptBytes.Add(-int64(len(k.b)))
	}
	return k
}

// Cancel cancels a job by ID (the DELETE /v1/jobs/{id} path). Returns
// false when the job is unknown or already terminal.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	if !j.requestCancel() {
		return false
	}
	s.dropInflight(j)
	// A user cancel resolves the job: release its journal record so a
	// restart doesn't resurrect work the client explicitly killed.
	// (For a still-running job the execution path may commit again —
	// harmless, commits of non-live hashes are no-ops.)
	s.journalCommit(j.Can.Hash)
	return true
}

// Drain gracefully shuts the server down: refuse new submissions,
// let in-flight jobs finish (their results land in the cache), cancel
// still-queued jobs with their journal records left live (checkpoint),
// and compact the journal to that live set, so a restart replays
// exactly the queued work and reuses every completed result.
// Idempotent; ctx bounds the wait for in-flight work. While the disk
// breaker is open the compaction is skipped — a degraded daemon exits
// cleanly with its journal intact from before the degrade, which is
// exactly the crash-recovery story.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.admitMu.Unlock()
		close(s.probeStop)
		if s.cluster != nil {
			// Stop heartbeating before waiting on workers: peers see
			// the drain via their next failed beat (or the Draining
			// flag gossiped just before).
			s.cluster.Stop()
		}

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
			return
		}
		if s.journal == nil {
			return
		}
		if s.degraded.Load() {
			log.Printf("server: draining degraded; skipping journal compaction (journal keeps pre-degrade accepts live for replay)")
		} else if err := s.journal.Compact(); err != nil {
			// Everything live here is queued work left for replay, or a
			// running job Close canceled; the uncompacted WAL holds the
			// same live set.
			log.Printf("server: journal compaction at drain failed: %v", err)
		}
		s.journal.Close()
	})
	return s.drainErr
}

// Close hard-stops the server: cancel every running job, then drain
// (their journal records stay live, as after a crash). Tests use it;
// production shutdown uses Drain.
func (s *Server) Close() error {
	s.stop()
	return s.Drain(context.Background())
}

// Stats is the GET /v1/stats body.
type Stats struct {
	Draining bool             `json:"draining"`
	QueueLen int              `json:"queue_len"`
	QueueCap int              `json:"queue_cap"`
	Jobs     map[JobState]int `json:"jobs"`
	// Simulations counts actual experiment executions (cache hits and
	// coalesced submissions never add one).
	Simulations uint64 `json:"simulations"`
	Coalesced   uint64 `json:"coalesced"`
	// PendingDropped counts journaled jobs a restarted daemon's replay
	// could not resubmit (unknown experiment, refilled queue).
	PendingDropped uint64 `json:"pending_dropped"`
	// Degraded reports the disk circuit breaker is open: the daemon is
	// serving memory-only and probing the disk for recovery.
	Degraded bool `json:"degraded"`
	// DegradedEvents counts breaker trips over the process lifetime.
	DegradedEvents uint64 `json:"degraded_events,omitempty"`
	// DeadlineShed counts jobs canceled for blowing their client
	// deadline, queued or running.
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
	// DiskFaultsInjected counts injected filesystem faults (chaos runs
	// only; zero without a -disk-faults plane).
	DiskFaultsInjected uint64 `json:"disk_faults_injected,omitempty"`
	// Journal is the accepted-job WAL snapshot (disk-backed caches
	// only).
	Journal *JournalStats `json:"journal,omitempty"`
	// Cluster is the fleet view (cluster mode only): ring shape,
	// membership counts, and cross-node traffic counters.
	Cluster   *ClusterStats            `json:"cluster,omitempty"`
	Cache     CacheStats               `json:"cache"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// Stats snapshots the server's counters. Every number is an atomic
// load reconciled across shards — no global lock is held, no per-job
// state is read, so a monitoring scrape never stalls admission.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:       s.draining.Load(),
		QueueLen:       len(s.queue),
		QueueCap:       cap(s.queue),
		Jobs:           s.trackedJobs(),
		Simulations:    s.simulations.Load(),
		Coalesced:      s.coalesced.Load(),
		PendingDropped: s.pendingDropped.Load(),
		Degraded:       s.degraded.Load(),
		DegradedEvents: s.degradedEvents.Load(),
		DeadlineShed:   s.deadlineShed.Load(),
		Cache:          s.cache.Stats(),
		Endpoints:      s.ep.snapshot(),
		Cluster:        s.clusterStats(),
	}
	if s.plane != nil {
		st.DiskFaultsInjected = s.plane.InjectedTotal()
	}
	if s.journal != nil {
		appended, committed, torn := s.journal.Counters()
		st.Journal = &JournalStats{
			Live:            s.journal.Live(),
			Appended:        appended,
			Committed:       committed,
			Replayed:        s.journalReplayed.Load(),
			TornSkipped:     torn,
			SkippedDegraded: s.journalSkipped.Load(),
		}
	}
	return st
}

// retryAfter renders a jittered Retry-After value for a refusal: a
// full queue suggests coming back in 1–3 seconds, a draining daemon
// in 5–10 (it is not coming back as this process). The jitter spreads
// a crowd of refused clients instead of re-synchronizing them into
// the next thundering herd.
func (s *Server) retryAfter(err error) string {
	s.retryRngMu.Lock()
	f := s.retryRng.Float64()
	s.retryRngMu.Unlock()
	lo, spread := 1, 3
	if errors.Is(err, ErrDraining) {
		lo, spread = 5, 6
	}
	return strconv.Itoa(lo + int(f*float64(spread-1)))
}
