package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/cluster"
	"colt/internal/obs"
	"colt/internal/telemetry"
)

// Handler returns the daemon's HTTP API. Routes use Go 1.22 method
// patterns; every route is wrapped in the per-endpoint
// latency/inflight middleware surfaced by GET /v1/stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.ep.instrument(pattern, h))
	}
	route("POST /v1/jobs", s.handleSubmit)
	route("GET /v1/jobs/{id}", s.handleStatus)
	route("GET /v1/jobs/{id}/report", s.handleReport)
	route("GET /v1/jobs/{id}/trace", s.handleTrace)
	route("GET /v1/jobs/{id}/timeline", s.handleTimeline)
	route("GET /v1/jobs/{id}/events", s.handleEvents)
	route("DELETE /v1/jobs/{id}", s.handleCancel)
	route("GET /v1/jobs", s.handleList)
	route("GET /v1/experiments", s.handleExperiments)
	route("GET /v1/stats", s.handleStats)
	route("GET /v1/healthz", s.handleHealthz)
	route("GET /v1/readyz", s.handleReadyz)
	route("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		// Fleet-internal endpoints: gossip and hash-addressed report
		// serving for peer fill.
		route("POST "+cluster.HeartbeatPath, s.handleClusterHeartbeat)
		route("GET "+cluster.ReportPath+"{hash}", s.handleClusterReport)
	}
	return mux
}

// MetricsHandler serves the Prometheus exposition alone — cmd/coltd
// mounts it on the -debug-addr listener next to pprof.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.om.reg.WritePrometheus(w)
}

// writeJSON renders a JSON response body. It marshals before touching
// the ResponseWriter, so an unencodable value becomes a clean 500
// instead of a half-written 200 with a silently truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// apiError is every non-2xx JSON body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitResponse is the POST /v1/jobs body.
type submitResponse struct {
	jobStatus
	// ReportSHA256 is the cached report's integrity hash, present on
	// cache hits so clients can verify the bytes they fetch.
	ReportSHA256 string `json:"report_sha256,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Accept an inbound correlation ID (validated) or mint one, and
	// return whichever ID the admission ran under — for a coalesced
	// submission that is the executing job's trace, so the client can
	// follow the run that will actually produce its result.
	trace := r.Header.Get("X-Colt-Trace")
	if !obs.ValidTraceID(trace) {
		trace = obs.NewTraceID()
	}
	w.Header().Set("X-Colt-Trace", trace)
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	// Cluster routing: a spec whose ring owner is another node is
	// forwarded there (one hop — forwarded requests always admit
	// locally), so identical specs submitted anywhere in the fleet
	// coalesce on one node and execute once.
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		if s.maybeProxySubmit(w, r, spec, trace) {
			return
		}
	}
	res, err := s.SubmitTraced(spec, trace)
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", s.retryAfter(err))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrTooLarge):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("X-Colt-Trace", res.Job.TraceID())
	resp := submitResponse{jobStatus: res.Job.snapshot(), ReportSHA256: res.ReportSum}
	w.Header().Set("Location", "/v1/jobs/"+res.Job.ID)
	status := http.StatusCreated
	if !res.Created {
		status = http.StatusOK // coalesced onto an existing job
	}
	writeJSON(w, status, resp)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		// A job minted by another node (recognizable by its "<node>."
		// ID prefix) is read through its home node; the response, if
		// it was a report, also fills the local cache on the way past.
		if s.proxyRemoteJob(w, r, id) {
			return nil, false
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("X-Colt-Trace", j.TraceID())
	writeJSON(w, http.StatusOK, j.snapshot())
}

// timelineResponse is the GET /v1/jobs/{id}/timeline body: the job's
// span timeline, each mark carrying its wall-clock nanosecond stamp
// and the delta from the previous mark.
type timelineResponse struct {
	ID      string          `json:"id"`
	TraceID string          `json:"trace_id"`
	State   JobState        `json:"state"`
	Marks   []timelineEntry `json:"marks"`
	// TotalMs spans admitted → the last recorded mark.
	TotalMs float64 `json:"total_ms"`
}

type timelineEntry struct {
	Phase   string  `json:"phase"`
	UnixNs  int64   `json:"unix_ns"`
	DeltaMs float64 `json:"delta_ms"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	state, marks := j.timelineSnapshot()
	resp := timelineResponse{ID: j.ID, TraceID: j.TraceID(), State: state,
		Marks: make([]timelineEntry, 0, len(marks))}
	for i, m := range marks {
		e := timelineEntry{Phase: m.Phase, UnixNs: m.UnixNs}
		if i > 0 {
			e.DeltaMs = float64(m.UnixNs-marks[i-1].UnixNs) / 1e6
		}
		resp.Marks = append(resp.Marks, e)
	}
	if n := len(marks); n > 1 {
		resp.TotalMs = float64(marks[n-1].UnixNs-marks[0].UnixNs) / 1e6
	}
	w.Header().Set("X-Colt-Trace", j.TraceID())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if st, errMsg := j.State(); st != JobDone {
		msg := fmt.Sprintf("job %s is %s; no report", j.ID, st)
		if errMsg != "" {
			msg += ": " + errMsg
		}
		writeError(w, http.StatusConflict, "%s", msg)
		return
	}
	b, sum, ok := s.report(j)
	if !ok {
		// The cached entry failed its integrity check after the job
		// completed; the client resubmits and the spec recomputes.
		writeError(w, http.StatusGone, "cached report for job %s failed verification; resubmit to recompute", j.ID)
		return
	}
	w.Header().Set("X-Report-Sha256", sum)
	w.Header().Set("ETag", `"`+sum+`"`)
	// The spec hash and experiment name let a proxying peer file the
	// verified bytes in its own cache (read-side peer fill).
	w.Header().Set(specHashHeader, j.Can.Hash)
	w.Header().Set(experimentHeader, j.Can.Exp.Name)
	j.markServed(time.Now())
	s.om.reportsServed.Inc()
	w.Header().Set("X-Colt-Trace", j.TraceID())
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	b := j.Trace()
	if len(b) == 0 {
		writeError(w, http.StatusNotFound,
			"job %s has no trace (submit with \"trace\": true; cache hits never have one)", j.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleEvents streams the job's progress log as Server-Sent Events:
// first a replay of everything recorded so far, then the live tail,
// then one terminal "end" event carrying the final job status. Late
// subscribers therefore see the same story as early ones.
//
// Fan-out is batched: each stream holds a cursor into the job's
// append-only event log and drains the new tail once per flush tick
// (Config.SSEFlushInterval) with a single Flush per batch. The
// execution hot path only appends to the log — a slow or stalled
// subscriber delays nobody but itself, and a thousand subscribers
// cost the running job nothing per event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	s.om.sseSubscribers.Inc()
	defer s.om.sseSubscribers.Dec()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Colt-Trace", j.TraceID())
	w.WriteHeader(http.StatusOK)

	writeBatch := func(evs []telemetry.ProgressEvent) {
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, b)
		}
		if len(evs) > 0 && canFlush {
			flusher.Flush()
		}
	}

	cursor := 0
	ticker := time.NewTicker(s.cfg.SSEFlushInterval)
	defer ticker.Stop()
	for {
		tail, terminal := j.eventsSince(cursor)
		cursor += len(tail)
		writeBatch(tail)
		if terminal {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done(): // drain the final tail, then end
		case <-ticker.C:
		}
	}
	b, err := json.Marshal(j.snapshot())
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: end\ndata: %s\n\n", b)
	if canFlush {
		flusher.Flush()
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if !s.Cancel(j.ID) {
		writeError(w, http.StatusConflict, "job %s is already %s", j.ID, func() JobState {
			st, _ := j.State()
			return st
		}())
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.listJobs()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobStatus `json:"jobs"`
	}{Jobs: out})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	out := make([]entry, 0, len(s.cfg.Registry))
	for _, e := range s.cfg.Registry {
		out = append(out, entry{Name: e.Name, Desc: e.Desc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, struct {
		Experiments []entry `json:"experiments"`
	}{Experiments: out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is pure liveness: 200 as long as the process serves
// HTTP, draining or not. Load balancers that want to stop routing to
// a node use readyz; kill-and-restart automation uses healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// readyzCluster is the cluster membership block of the readyz body:
// which node this is, how big its ring currently is, and each peer's
// failure-detector state — the partition view an LB or operator needs
// to decide whether "ready" means "ready and well-connected".
type readyzCluster struct {
	NodeID   string         `json:"node_id"`
	Epoch    uint64         `json:"epoch"`
	RingSize int            `json:"ring_size"`
	Alive    int            `json:"peers_alive"`
	Suspect  int            `json:"peers_suspect"`
	Dead     int            `json:"peers_dead"`
	Peers    []cluster.Peer `json:"peers,omitempty"`
}

// handleReadyz is readiness: 503 while draining so a load balancer
// rotates the node out before the drain completes. A degraded
// (breaker-open) daemon still serves — memory-only — so it stays
// ready, but the state is reported for operators and alerting. In
// cluster mode the body carries the node's membership view.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.isDraining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	} else if s.degraded.Load() {
		state = "degraded"
	}
	var cl *readyzCluster
	if s.cluster != nil {
		alive, suspect, dead := s.cluster.Counts()
		cl = &readyzCluster{
			NodeID:   s.cluster.NodeID(),
			Epoch:    s.cluster.Epoch(),
			RingSize: s.cluster.Ring().Size(),
			Alive:    alive,
			Suspect:  suspect,
			Dead:     dead,
			Peers:    s.cluster.Members(),
		}
	}
	writeJSON(w, status, struct {
		Status   string         `json:"status"`
		Draining bool           `json:"draining"`
		Degraded bool           `json:"degraded"`
		Cluster  *readyzCluster `json:"cluster,omitempty"`
	}{Status: state, Draining: s.isDraining(), Degraded: s.degraded.Load(), Cluster: cl})
}

// EndpointStats is one route's counter snapshot in GET /v1/stats.
// Latencies are wall-clock and excluded from any golden comparison.
type EndpointStats struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"` // responses with status >= 400
	InFlight  int64  `json:"in_flight"`
	TotalUsec uint64 `json:"total_usec"`
	MaxUsec   uint64 `json:"max_usec"`
}

// epCounters is one route's live counters. All atomics: the request
// path never takes a lock, so the middleware costs the same whether
// one route or every route is hot.
type epCounters struct {
	requests  atomic.Uint64
	errors    atomic.Uint64
	inFlight  atomic.Int64
	totalUsec atomic.Uint64
	maxUsec   atomic.Uint64
}

// endpointMetrics tracks per-route request counters. The map is
// populated at route-registration time and read-only afterwards; mu
// only guards registration. Each route's counters are also exported
// to /metrics through Func collectors reading the same atomics, so
// /v1/stats and the exposition can never disagree.
type endpointMetrics struct {
	mu sync.Mutex
	m  map[string]*epCounters
	om *serverMetrics
}

func newEndpointMetrics(om *serverMetrics) *endpointMetrics {
	return &endpointMetrics{m: make(map[string]*epCounters), om: om}
}

// instrument wraps a handler with request/error/latency/inflight
// accounting under the route's pattern. The route's counter struct is
// resolved once, here, so the per-request path is pure atomics.
func (em *endpointMetrics) instrument(pattern string, h http.Handler) http.Handler {
	em.mu.Lock()
	st, ok := em.m[pattern]
	if !ok {
		st = &epCounters{}
		em.m[pattern] = st
		if em.om != nil {
			em.om.reg.CounterFunc("coltd_http_requests_total", "HTTP requests by route.",
				func() float64 { return float64(st.requests.Load()) }, "route", pattern)
			em.om.reg.CounterFunc("coltd_http_errors_total", "HTTP responses with status >= 400, by route.",
				func() float64 { return float64(st.errors.Load()) }, "route", pattern)
		}
	}
	em.mu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st.requests.Add(1)
		st.inFlight.Add(1)

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)

		elapsed := time.Since(start)
		usec := uint64(elapsed.Microseconds())
		st.inFlight.Add(-1)
		st.totalUsec.Add(usec)
		for {
			cur := st.maxUsec.Load()
			if usec <= cur || st.maxUsec.CompareAndSwap(cur, usec) {
				break
			}
		}
		if rec.status >= 400 {
			st.errors.Add(1)
		}
		if em.om != nil {
			em.om.httpLatency.Observe(elapsed.Seconds())
		}
	})
}

func (em *endpointMetrics) snapshot() map[string]EndpointStats {
	em.mu.Lock()
	defer em.mu.Unlock()
	out := make(map[string]EndpointStats, len(em.m))
	for k, v := range em.m {
		out[k] = EndpointStats{
			Requests:  v.requests.Load(),
			Errors:    v.errors.Load(),
			InFlight:  v.inFlight.Load(),
			TotalUsec: v.totalUsec.Load(),
			MaxUsec:   v.maxUsec.Load(),
		}
	}
	return out
}

// statusRecorder captures the response status for error accounting
// while passing Flush through so SSE streaming keeps working behind
// the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
