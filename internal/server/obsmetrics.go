package server

import (
	"time"

	"colt/internal/obs"
)

// serverMetrics is coltd's /metrics surface. Counters the hot path
// increments directly live here; counters the server already keeps as
// atomics (admission tallies, cache/journal/breaker state) are
// exported through Func collectors so nothing is counted twice and
// the hot path is untouched. Everything a scrape reads is an atomic
// load — the exposition can never stall admission.
type serverMetrics struct {
	reg *obs.Registry

	// Admission outcomes, one counter per disposition.
	admitAccepted  *obs.Counter
	admitCacheHit  *obs.Counter
	admitCoalesced *obs.Counter
	admitQueueFull *obs.Counter
	admitDraining  *obs.Counter
	admitTooLarge  *obs.Counter
	admitInvalid   *obs.Counter

	// Terminal transitions by final state.
	doneTotal     *obs.Counter
	failedTotal   *obs.Counter
	canceledTotal *obs.Counter

	// Wall-clock phase latencies, derived from the span timeline at
	// the terminal transition.
	phaseQueueWait *obs.Histogram
	phaseRun       *obs.Histogram
	phaseTotal     *obs.Histogram

	// HTTP layer.
	httpLatency    *obs.Histogram
	sseSubscribers *obs.Gauge
	reportsServed  *obs.Counter
}

// newServerMetrics registers the whole inventory against srv. Called
// once during NewServer, before any worker or handler runs, so
// registration's mutex never meets the serving path.
func newServerMetrics(srv *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	const submitted = "coltd_jobs_submitted_total"
	const submittedHelp = "Admission decisions by outcome."
	m.admitAccepted = r.Counter(submitted, submittedHelp, "outcome", "accepted")
	m.admitCacheHit = r.Counter(submitted, submittedHelp, "outcome", "cache_hit")
	m.admitCoalesced = r.Counter(submitted, submittedHelp, "outcome", "coalesced")
	m.admitQueueFull = r.Counter(submitted, submittedHelp, "outcome", "refused_queue_full")
	m.admitDraining = r.Counter(submitted, submittedHelp, "outcome", "refused_draining")
	m.admitTooLarge = r.Counter(submitted, submittedHelp, "outcome", "refused_too_large")
	m.admitInvalid = r.Counter(submitted, submittedHelp, "outcome", "invalid")

	const completed = "coltd_jobs_completed_total"
	const completedHelp = "Jobs reaching a terminal state, by state."
	m.doneTotal = r.Counter(completed, completedHelp, "state", "done")
	m.failedTotal = r.Counter(completed, completedHelp, "state", "failed")
	m.canceledTotal = r.Counter(completed, completedHelp, "state", "canceled")

	const phase = "coltd_job_phase_seconds"
	const phaseHelp = "Wall-clock time jobs spend per lifecycle phase."
	m.phaseQueueWait = r.Histogram(phase, phaseHelp, obs.LatencyBuckets, "phase", "queue_wait")
	m.phaseRun = r.Histogram(phase, phaseHelp, obs.LatencyBuckets, "phase", "run")
	m.phaseTotal = r.Histogram(phase, phaseHelp, obs.LatencyBuckets, "phase", "total")

	r.GaugeFunc("coltd_queue_depth", "Jobs currently in the bounded queue.",
		func() float64 { return float64(len(srv.queue)) })
	r.GaugeFunc("coltd_queue_capacity", "Configured queue bound.",
		func() float64 { return float64(cap(srv.queue)) })
	for idx, st := range jobStates {
		idx := idx
		r.GaugeFunc("coltd_jobs_tracked", "Registry-tracked jobs by state.",
			func() float64 {
				var n int64
				for i := range srv.reg {
					n += srv.reg[i].counts.n[idx].Load()
				}
				return float64(n)
			}, "state", string(st))
	}
	r.GaugeFunc("coltd_draining", "1 while the daemon is draining.",
		func() float64 { return boolGauge(srv.draining.Load()) })
	r.GaugeFunc("coltd_degraded", "1 while the disk circuit breaker is open (memory-only serving).",
		func() float64 { return boolGauge(srv.degraded.Load()) })
	r.CounterFunc("coltd_breaker_trips_total", "Disk circuit breaker openings over the process lifetime.",
		func() float64 { return float64(srv.degradedEvents.Load()) })
	r.CounterFunc("coltd_simulations_total", "Experiment executions (cache hits and coalesced submissions excluded).",
		func() float64 { return float64(srv.simulations.Load()) })
	r.CounterFunc("coltd_deadline_shed_total", "Jobs canceled for blowing their client deadline, queued or running.",
		func() float64 { return float64(srv.deadlineShed.Load()) })
	r.CounterFunc("coltd_pending_dropped_total", "Checkpointed or journaled jobs a restart could not resubmit.",
		func() float64 { return float64(srv.pendingDropped.Load()) })
	r.CounterFunc("coltd_disk_faults_injected_total", "Filesystem faults injected by the chaos plane.",
		func() float64 { return float64(srv.plane.InjectedTotal()) })

	r.CounterFunc("coltd_cache_hits_total", "Cache reads served after hash verification.",
		func() float64 { return float64(srv.cache.hits.Load()) })
	r.CounterFunc("coltd_cache_misses_total", "Cache reads that fell through to recompute.",
		func() float64 { return float64(srv.cache.misses.Load()) })
	r.CounterFunc("coltd_cache_corrupt_total", "Cache entries evicted for failing verification.",
		func() float64 { return float64(srv.cache.corrupt.Load()) })
	r.CounterFunc("coltd_cache_degraded_puts_total", "Results diverted to the memory overlay by a failing disk.",
		func() float64 { return float64(srv.cache.degradedPuts.Load()) })
	r.GaugeFunc("coltd_cache_entries", "Entries in the content-addressed result cache.",
		func() float64 { return float64(srv.cache.entriesN.Load()) })
	r.GaugeFunc("coltd_cache_overlay_entries", "Disk-mode entries living only in the memory overlay.",
		func() float64 {
			if srv.cache.dir == "" {
				return 0
			}
			return float64(srv.cache.overlayN.Load())
		})

	// Journal funcs nil-check at scrape time: memory-only daemons have
	// no WAL but keep the same series shape (zeros), so dashboards
	// never lose the family.
	r.CounterFunc("coltd_journal_appends_total", "WAL records durably appended.",
		func() float64 {
			if srv.journal == nil {
				return 0
			}
			return float64(srv.journal.appended.Load())
		})
	r.CounterFunc("coltd_journal_commits_total", "WAL accept records resolved.",
		func() float64 {
			if srv.journal == nil {
				return 0
			}
			return float64(srv.journal.committed.Load())
		})
	r.CounterFunc("coltd_journal_torn_total", "Corrupt or torn WAL records skipped at open.",
		func() float64 {
			if srv.journal == nil {
				return 0
			}
			return float64(srv.journal.torn.Load())
		})
	r.GaugeFunc("coltd_journal_live", "Accepted-but-unresolved WAL records (what a crash now would replay).",
		func() float64 {
			if srv.journal == nil {
				return 0
			}
			return float64(srv.journal.liveN.Load())
		})
	r.CounterFunc("coltd_journal_replayed_total", "Jobs resubmitted from the WAL at startup.",
		func() float64 { return float64(srv.journalReplayed.Load()) })
	r.CounterFunc("coltd_journal_skipped_degraded_total", "Jobs admitted without a durable accept record.",
		func() float64 { return float64(srv.journalSkipped.Load()) })

	// Cluster families are always registered — an unclustered daemon
	// exports zeros (srv.cluster nil-checked at scrape, like the
	// journal funcs) so dashboards keep one series shape fleet-wide.
	r.GaugeFunc("coltd_cluster_ring_size", "Members in the consistent-hash ring (0 = unclustered).",
		func() float64 {
			if srv.cluster == nil {
				return 0
			}
			return float64(srv.cluster.Ring().Size())
		})
	r.GaugeFunc("coltd_cluster_ring_epoch", "Local ring epoch (bumped per rebuild; gossiped for agreement checks).",
		func() float64 {
			if srv.cluster == nil {
				return 0
			}
			return float64(srv.cluster.Epoch())
		})
	peerGauge := func(state string, pick func(alive, suspect, dead int) int) {
		r.GaugeFunc("coltd_cluster_peers", "Peers by failure-detector state.",
			func() float64 {
				if srv.cluster == nil {
					return 0
				}
				return float64(pick(srv.cluster.Counts()))
			}, "state", state)
	}
	peerGauge("alive", func(a, s, d int) int { return a })
	peerGauge("suspect", func(a, s, d int) int { return s })
	peerGauge("dead", func(a, s, d int) int { return d })
	clusterCounter := func(name, help string, load func() uint64, labels ...string) {
		r.CounterFunc(name, help, func() float64 {
			if srv.cluster == nil {
				return 0
			}
			return float64(load())
		}, labels...)
	}
	clusterCounter("coltd_cluster_proxied_submits_total", "Submissions forwarded to their ring owner.",
		func() uint64 { return srv.cluster.Counters.ProxiedSubmits.Load() })
	clusterCounter("coltd_cluster_proxy_fallbacks_total", "Submissions admitted locally because the owner was unreachable.",
		func() uint64 { return srv.cluster.Counters.ProxyFallbacks.Load() })
	const fill = "coltd_cluster_peer_fill_total"
	const fillHelp = "Peer cache fill attempts by outcome."
	clusterCounter(fill, fillHelp, func() uint64 { return srv.cluster.Counters.PeerFillOK.Load() }, "outcome", "ok")
	clusterCounter(fill, fillHelp, func() uint64 { return srv.cluster.Counters.PeerFillMiss.Load() }, "outcome", "miss")
	clusterCounter(fill, fillHelp, func() uint64 { return srv.cluster.Counters.PeerFillCorrupt.Load() }, "outcome", "corrupt")
	const beats = "coltd_cluster_heartbeats_total"
	const beatsHelp = "Outbound heartbeats by outcome."
	clusterCounter(beats, beatsHelp, func() uint64 { return srv.cluster.Counters.HeartbeatOK.Load() }, "outcome", "ok")
	clusterCounter(beats, beatsHelp, func() uint64 { return srv.cluster.Counters.HeartbeatFail.Load() }, "outcome", "fail")
	clusterCounter("coltd_cluster_ring_rebuilds_total", "Consistent-hash ring rebuilds (membership changes).",
		func() uint64 { return srv.cluster.Counters.RingRebuilds.Load() })

	m.httpLatency = r.Histogram("coltd_http_request_seconds",
		"HTTP request latency across all routes.", obs.LatencyBuckets)
	m.sseSubscribers = r.Gauge("coltd_sse_subscribers", "Open SSE event streams.")
	m.reportsServed = r.Counter("coltd_reports_served_total", "Report fetches served from the cache.")
	return m
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// noteTerminal records a terminal transition: completion counters and
// the phase histograms derived from the span timeline. Called from
// finishLocked/markCachedDone with j.mu held (the timeline is stable
// and the terminal mark just landed). Nil-safe for directly
// constructed test jobs.
func (m *serverMetrics) noteTerminal(j *Job, state JobState) {
	if m == nil {
		return
	}
	switch state {
	case JobDone:
		m.doneTotal.Inc()
	case JobFailed:
		m.failedTotal.Inc()
	default:
		m.canceledTotal.Inc()
	}
	var admitted, queued, running, term int64
	for _, mk := range j.timeline {
		switch mk.Phase {
		case "admitted":
			admitted = mk.UnixNs
		case "queued":
			queued = mk.UnixNs
		case "running":
			running = mk.UnixNs
		}
		term = mk.UnixNs // the terminal mark is last
	}
	sec := func(from, to int64) float64 { return time.Duration(to - from).Seconds() }
	if queued != 0 {
		end := running
		if end == 0 {
			end = term // shed or canceled before dispatch
		}
		m.phaseQueueWait.Observe(sec(queued, end))
	}
	if running != 0 {
		m.phaseRun.Observe(sec(running, term))
	}
	if admitted != 0 {
		m.phaseTotal.Observe(sec(admitted, term))
	}
}
