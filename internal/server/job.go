package server

import (
	"sync"
	"sync/atomic"
	"time"

	"colt/internal/telemetry"
)

// JobState is a job's lifecycle position. The transitions form a
// small DAG: queued → running → {done, failed, canceled}, with two
// shortcuts that never touch the queue — a cache hit jumps straight
// to done, and a drain checkpoint or pre-dispatch DELETE jumps
// queued → canceled.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether a state has no outgoing transitions.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// stateIndex maps JobState to the dense index used by the atomic
// mirror and the per-shard counters.
func stateIndex(s JobState) int {
	switch s {
	case JobQueued:
		return 0
	case JobRunning:
		return 1
	case JobDone:
		return 2
	case JobFailed:
		return 3
	default: // JobCanceled
		return 4
	}
}

// jobStates lists every state at its index.
var jobStates = [5]JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled}

// stateCounters is one registry shard's per-state job tally. All
// fields are atomics: transitions bump them from under the job's own
// lock and Stats() sums them with plain loads, so a stats read never
// touches a shard mutex, let alone every job.
type stateCounters struct {
	n [len(jobStates)]atomic.Int64
}

// move records a state transition.
func (c *stateCounters) move(from, to JobState) {
	if c == nil {
		return
	}
	c.n[stateIndex(from)].Add(-1)
	c.n[stateIndex(to)].Add(1)
}

// add records a job entering tracking at state s; sub records it
// leaving (eviction).
func (c *stateCounters) add(s JobState) { c.n[stateIndex(s)].Add(1) }
func (c *stateCounters) sub(s JobState) { c.n[stateIndex(s)].Add(-1) }

// terminalTotal is the count of tracked terminal jobs in this shard.
func (c *stateCounters) terminalTotal() int64 {
	return c.n[stateIndex(JobDone)].Load() +
		c.n[stateIndex(JobFailed)].Load() +
		c.n[stateIndex(JobCanceled)].Load()
}

// Job is one tracked submission. Its progress events form an
// append-only log; SSE subscribers hold a cursor into the log and
// drain it in batches on a flush tick, so a client attaching late
// sees the same sequence as one attaching before the job ran, and
// the execution hot path never does per-subscriber work.
type Job struct {
	ID  string
	Can CanonicalJob

	// seq is the admission sequence number (the ID renders it); it
	// picks the registry shard and orders job listings.
	seq uint64
	// stateV mirrors the current state (stateIndex-encoded) for
	// lock-free readers: eviction scans, coalesce checks, and the
	// per-shard stats counters all read it without touching mu.
	stateV atomic.Int32
	// counts points at the owning registry shard's per-state tally.
	// Set before the job becomes reachable by any other goroutine.
	counts *stateCounters
	// deadline is the job's absolute patience deadline (zero = none).
	// Set before the job is published; read-only afterwards.
	deadline time.Time

	// traceID is the request-scoped correlation ID minted (or accepted
	// inbound) at admission. Set before the job is published; read-only
	// afterwards.
	traceID string
	// om receives terminal-transition notifications for the phase
	// histograms and completion counters. Set before publication; may
	// be nil in unit tests that construct jobs directly.
	om *serverMetrics
	// kept holds a done job's report for its first fetch (nil when the
	// job kept nothing, or once the report was fetched or the job
	// evicted). Set before any other goroutine can fetch or evict the
	// job; Server.takeKept swaps it out, so exactly one fetch or
	// eviction releases it.
	kept atomic.Pointer[keptReport]

	mu           sync.Mutex
	errMsg       string
	cached       bool // served from cache without simulating
	userCanceled bool // canceled by an explicit DELETE, not by shutdown
	coalesced    int  // extra submissions folded into this execution
	events       []telemetry.ProgressEvent
	cancel       func()        // non-nil while running
	done         chan struct{} // closed on reaching a terminal state
	trace        []byte        // Chrome trace artifact, if requested
	created      time.Time
	// timeline is the job's wall-clock span record: one mark per
	// lifecycle edge (admitted → journaled → queued → running →
	// committed → <terminal> → served), append-only under mu. The
	// terminal mark appended by finishLocked is the single source of
	// truth for "when did this job end" — the SSE end event, the
	// status snapshot, and GET /v1/jobs/{id}/timeline all read it, so
	// they can never disagree.
	timeline []TimelineMark
}

// keptReport is report bytes a job holds for its first fetch and the
// SHA-256 they were checked against: a cache hit's bytes as admission
// read and verified them, or an executed job's bytes as committed.
type keptReport struct {
	b   []byte
	sum string
}

// TimelineMark is one edge in a job's span timeline. Phase names are
// the lifecycle edges above; terminal marks use the JobState string
// ("done", "failed", "canceled").
type TimelineMark struct {
	Phase  string `json:"phase"`
	UnixNs int64  `json:"unix_ns"`
}

func newJob(id string, can CanonicalJob, now time.Time) *Job {
	j := &Job{
		ID:       id,
		Can:      can,
		done:     make(chan struct{}),
		created:  now,
		timeline: []TimelineMark{{Phase: "admitted", UnixNs: now.UnixNano()}},
	}
	j.stateV.Store(int32(stateIndex(JobQueued)))
	return j
}

// TraceID returns the job's request-scoped trace ID.
func (j *Job) TraceID() string { return j.traceID }

// mark appends a span-timeline edge.
func (j *Job) mark(phase string, t time.Time) {
	j.mu.Lock()
	j.markLocked(phase, t)
	j.mu.Unlock()
}

func (j *Job) markLocked(phase string, t time.Time) {
	j.timeline = append(j.timeline, TimelineMark{Phase: phase, UnixNs: t.UnixNano()})
}

// markServed records the first time the job's report was fetched;
// later fetches keep the original mark.
func (j *Job) markServed(t time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.hasMarkLocked("served") {
		j.markLocked("served", t)
	}
}

// hasMark reports whether the job's timeline holds a phase's mark.
func (j *Job) hasMark(phase string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hasMarkLocked(phase)
}

func (j *Job) hasMarkLocked(phase string) bool {
	for _, m := range j.timeline {
		if m.Phase == phase {
			return true
		}
	}
	return false
}

// terminalMarkLocked returns the terminal transition record, if the
// job has one. Callers hold j.mu.
func (j *Job) terminalMarkLocked() (TimelineMark, bool) {
	for _, m := range j.timeline {
		if JobState(m.Phase).terminal() {
			return m, true
		}
	}
	return TimelineMark{}, false
}

// timelineSnapshot copies the span timeline with the job's identity.
func (j *Job) timelineSnapshot() (state JobState, marks []TimelineMark) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stateFast(), append([]TimelineMark(nil), j.timeline...)
}

// stateFast returns the current state without locking. It may trail a
// concurrent transition by an instant, but terminal states are final:
// once stateFast reports terminal, the job can never run.
func (j *Job) stateFast() JobState {
	return jobStates[j.stateV.Load()]
}

// setStateLocked performs a state transition under j.mu, keeping the
// atomic mirror and shard counters in step.
func (j *Job) setStateLocked(to JobState) {
	from := j.stateFast()
	j.stateV.Store(int32(stateIndex(to)))
	j.counts.move(from, to)
}

// State returns the current state and error message.
func (j *Job) State() (JobState, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stateFast(), j.errMsg
}

// Cached reports whether the job was served from cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Done returns a channel closed when the job reaches a terminal
// state; SSE streams select on it to learn the log is complete.
func (j *Job) Done() <-chan struct{} { return j.done }

// appendEvent records a progress event. It is the Reporter hook of
// the job's execution hot path, so it does the minimum possible under
// the lock: append to the log. Fan-out happens on the subscribers'
// flush ticks (eventsSince), not here — no per-subscriber channel
// sends, no flushes, no blocking.
func (j *Job) appendEvent(ev telemetry.ProgressEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.mu.Unlock()
}

// eventsSince copies the log tail starting at cursor and reports
// whether the job is terminal (i.e. the log is complete). Subscribers
// call it once per flush tick and advance their cursor by the number
// of events returned.
func (j *Job) eventsSince(cursor int) (tail []telemetry.ProgressEvent, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		tail = append(tail, j.events[cursor:]...)
	}
	return tail, j.stateFast().terminal()
}

// finish moves the job to a terminal state and closes the done
// channel so SSE streams drain and end.
func (j *Job) finish(state JobState, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, errMsg, now)
}

// finishLocked is finish for callers already holding j.mu; the
// cancel path uses it to make its observe-and-finish atomic. The
// terminal timeline mark appended here is the one transition record
// every terminal-timestamp reader derives from.
func (j *Job) finishLocked(state JobState, errMsg string, now time.Time) {
	if j.stateFast().terminal() {
		return
	}
	j.setStateLocked(state)
	j.errMsg = errMsg
	j.markLocked(string(state), now)
	close(j.done)
	j.om.noteTerminal(j, state)
}

// markCachedDone moves a freshly minted job straight to done-from-
// cache. Called before the job is tracked or otherwise published.
func (j *Job) markCachedDone(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stateV.Store(int32(stateIndex(JobDone)))
	j.cached = true
	j.markLocked(string(JobDone), now)
	close(j.done)
	j.om.noteTerminal(j, JobDone)
}

// start moves a queued job to running, rejecting jobs already
// canceled (a DELETE that raced the dispatch). The returned cancel
// hook is invoked by DELETE while the job runs.
func (j *Job) start(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stateFast() != JobQueued {
		return false
	}
	j.setStateLocked(JobRunning)
	j.markLocked("running", time.Now())
	j.cancel = cancel
	return true
}

// requestCancel cancels the job: queued jobs jump straight to
// canceled under a single lock acquisition — the decision and the
// transition are atomic, so a racing dispatch either sees canceled
// and skips the job, or wins the lock first and the job is canceled
// through its running context instead. Running jobs get their context
// canceled and finish through the normal execution path. Returns
// false if the job is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	state := j.stateFast()
	if state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.userCanceled = true
	if state == JobQueued {
		j.finishLocked(JobCanceled, "canceled before dispatch", time.Now())
		j.mu.Unlock()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// wasUserCanceled reports whether an explicit DELETE canceled the
// job. Execution uses it to tell user cancellation (resolved: commit
// the journal record) from shutdown cancellation (crash-equivalent:
// leave the record live for replay).
func (j *Job) wasUserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCanceled
}

// setTrace stores the job's Chrome trace artifact.
func (j *Job) setTrace(b []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = b
}

// Trace returns the job's trace artifact, if recorded.
func (j *Job) Trace() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// noteCoalesced counts an identical submission folded into this job.
func (j *Job) noteCoalesced() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.coalesced++
}

// snapshot captures the fields the status endpoint renders. The
// terminal timestamp comes from the timeline's terminal mark — the
// same record the timeline endpoint serves — so an SSE end event and
// a later GET /v1/jobs/{id}/timeline always agree to the nanosecond.
func (j *Job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:         j.ID,
		Experiment: j.Can.Exp.Name,
		Hash:       j.Can.Hash,
		State:      j.stateFast(),
		Error:      j.errMsg,
		Cached:     j.cached,
		Coalesced:  j.coalesced,
		Events:     len(j.events),
		HasTrace:   len(j.trace) > 0,
		TraceID:    j.traceID,
	}
	if m, ok := j.terminalMarkLocked(); ok {
		st.FinishedUnixNs = m.UnixNs
	}
	return st
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	Hash       string   `json:"hash"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	Cached     bool     `json:"cached"`
	Coalesced  int      `json:"coalesced,omitempty"`
	Events     int      `json:"events"`
	HasTrace   bool     `json:"has_trace"`
	// TraceID is the request-scoped correlation ID minted at admission.
	TraceID string `json:"trace_id,omitempty"`
	// FinishedUnixNs is the terminal transition's wall-clock nanosecond
	// timestamp, taken from the same timeline record the timeline
	// endpoint renders. Zero while the job is live.
	FinishedUnixNs int64 `json:"finished_unix_ns,omitempty"`
}
