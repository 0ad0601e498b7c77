package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colt/internal/experiments"
	"colt/internal/metrics"
	"colt/internal/server/faultfs"
)

// TestBoundedRetentionEvictsOldestTerminal: the registry must not grow
// without bound under sustained traffic. Ten thousand cache-hit jobs
// against a RetainJobs=64 server leave at most 64 tracked jobs; the
// earliest IDs are evicted (404 over HTTP) while the newest survives,
// and a job that is still running is never evicted no matter how much
// terminal traffic churns past it.
func TestBoundedRetentionEvictsOldestTerminal(t *testing.T) {
	dir := t.TempDir()
	warm := Spec{Experiment: "stub", Seed: 1}

	// Phase 1: populate the cache with the hot spec's report.
	s1 := newStubServer(t, Config{CacheDir: dir, RetainJobs: 64}, nil)
	first := mustSubmit(t, s1, warm)
	waitState(t, first.Job, JobDone)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a gated server over the same cache. One fresh job runs
	// (held open by the gate) while 10k cache hits churn the registry.
	gate := make(chan struct{})
	s := newStubServer(t, Config{CacheDir: dir, RetainJobs: 64}, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 777})
	waitState(t, running.Job, JobRunning)

	var firstHitID, lastHitID string
	for i := 0; i < 10_000; i++ {
		res := mustSubmit(t, s, warm)
		if !res.Cached {
			t.Fatalf("submission %d missed the cache: %+v", i, res)
		}
		if firstHitID == "" {
			firstHitID = res.Job.ID
		}
		lastHitID = res.Job.ID
	}

	// The bound covers terminal jobs; the one running job sits outside
	// it.
	var terminalCount int
	for _, j := range s.listJobs() {
		if j.stateFast().terminal() {
			terminalCount++
		}
	}
	if terminalCount > 64 {
		t.Fatalf("registry holds %d terminal jobs after 10k submissions, want <= 64", terminalCount)
	}
	if _, ok := s.Job(firstHitID); ok {
		t.Fatalf("oldest terminal job %s survived eviction", firstHitID)
	}
	if _, ok := s.Job(lastHitID); !ok {
		t.Fatalf("newest job %s was evicted", lastHitID)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+firstHitID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status = %d, want 404", resp.StatusCode)
	}

	// The running job rode out the entire churn.
	j, ok := s.Job(running.Job.ID)
	if !ok {
		t.Fatalf("running job %s was evicted", running.Job.ID)
	}
	if st, _ := j.State(); st != JobRunning {
		t.Fatalf("running job state = %s, want running", st)
	}
	close(gate)
	waitState(t, j, JobDone)
}

// rangedRegistry is a stub whose driver records every seed it actually
// executes — the instrument for proving a canceled-before-dispatch job
// never runs.
func rangedRegistry(ran *sync.Map) []experiments.NamedExperiment {
	return []experiments.NamedExperiment{{
		Name: "stub", Desc: "test stub",
		Run: func(opts experiments.Options) error {
			ran.Store(opts.Seed, true)
			opts.Metrics.Add(metrics.Record{
				Kind: "bench", Bench: "stub", Setup: "s", Seed: opts.Seed,
			}, 0)
			return nil
		},
	}}
}

// TestCancelDispatchRace hammers DELETE against worker dispatch: for
// every job whose cancel won while it was still queued, the experiment
// must never execute. Before the fix, requestCancel read the state
// under one lock acquisition and transitioned under a second, so a
// dispatch could slip between the two and run a job that had already
// been reported canceled.
func TestCancelDispatchRace(t *testing.T) {
	var ran sync.Map
	s, err := NewServer(Config{
		Workers:    2,
		QueueDepth: 64,
		Registry:   rangedRegistry(&ran),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const rounds, perRound = 40, 8
	seed := uint64(0)
	for r := 0; r < rounds; r++ {
		jobs := make([]*Job, 0, perRound)
		for i := 0; i < perRound; i++ {
			seed++
			res := mustSubmit(t, s, Spec{Experiment: "stub", Seed: seed})
			jobs = append(jobs, res.Job)
		}
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j *Job) {
				defer wg.Done()
				s.Cancel(j.ID)
			}(j)
		}
		wg.Wait()
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				st, _ := j.State()
				t.Fatalf("job %s stuck in %s after cancel/dispatch race", j.ID, st)
			}
			st, errMsg := j.State()
			switch st {
			case JobDone:
				// Dispatch won; the run must have happened.
				if _, ok := ran.Load(j.Can.Spec.Seed); !ok {
					t.Fatalf("job %s is done but its seed never ran", j.ID)
				}
			case JobCanceled:
				if strings.Contains(errMsg, "before dispatch") {
					if _, ok := ran.Load(j.Can.Spec.Seed); ok {
						t.Fatalf("job %s canceled before dispatch but its experiment ran anyway", j.ID)
					}
				}
			default:
				t.Fatalf("job %s ended %s (%s), want done or canceled", j.ID, st, errMsg)
			}
		}
	}
}

// TestCanceledQueuedJobsFreeTheirSlots: a queued job its client
// cancels gives its queue slot back at once. With both workers held
// inside gated runs, the queue is filled, every queued job canceled,
// and the next QueueDepth submissions must all be admitted. Before the
// fix a canceled job kept its slot until a worker dequeued it, so
// while the workers were busy these submissions were refused with
// "job queue is full".
func TestCanceledQueuedJobsFreeTheirSlots(t *testing.T) {
	const depth = 4
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 2, QueueDepth: depth}, gate)
	seed := uint64(0)
	submit := func() *Job {
		t.Helper()
		seed++
		return mustSubmit(t, s, Spec{Experiment: "stub", Seed: seed}).Job
	}
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j := submit()
		waitState(t, j, JobRunning)
		jobs = append(jobs, j)
	}
	for i := 0; i < depth; i++ {
		j := submit()
		if !s.Cancel(j.ID) {
			t.Fatalf("Cancel(%s) refused a queued job", j.ID)
		}
		if st, _ := j.State(); st != JobCanceled {
			t.Fatalf("canceled queued job %s is %s", j.ID, st)
		}
	}
	if st := s.Stats(); st.QueueLen != 0 {
		t.Fatalf("queue_len = %d after every queued job was canceled, want 0", st.QueueLen)
	}
	for i := 0; i < depth; i++ {
		jobs = append(jobs, submit())
	}
	if _, err := s.Submit(Spec{Experiment: "stub", Seed: 1000}); err != ErrQueueFull {
		t.Fatalf("submit past the refilled queue: err = %v, want ErrQueueFull", err)
	}
	close(gate)
	for _, j := range jobs {
		waitState(t, j, JobDone)
	}
}

// TestQueuePushSkipsCanceledJob: a job canceled after admission
// reserved its slot but before the push (its ID is already
// registered, so a DELETE can reach it) gives the slot back instead of
// holding it until a worker pops it.
func TestQueuePushSkipsCanceledJob(t *testing.T) {
	q := newJobQueue(1)
	if !q.reserve() {
		t.Fatal("empty queue refused a reservation")
	}
	j := newJob("j000001", CanonicalJob{}, time.Now())
	if !j.requestCancel() {
		t.Fatal("requestCancel refused a queued job")
	}
	q.push(j)
	if q.len() != 0 || !q.reserve() {
		t.Fatalf("a canceled push holds its slot: len %d", q.len())
	}
}

// TestQueueFullDoesNotBurnIDs: a refused submission must leave no
// trace — in particular it must not consume a job ID. Before the fix,
// Submit minted the ID before attempting the queue send, so a burst of
// refusals left holes in the ID sequence.
func TestQueueFullDoesNotBurnIDs(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, gate)

	r1 := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, r1.Job, JobRunning) // its queue slot is free again
	r2 := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 2})
	if r2.Job.ID != "j000002" {
		t.Fatalf("second job ID = %s, want j000002", r2.Job.ID)
	}

	for i := 0; i < 10; i++ {
		_, err := s.Submit(Spec{Experiment: "stub", Seed: uint64(100 + i)})
		if err != ErrQueueFull {
			t.Fatalf("over-capacity submit %d: err = %v, want ErrQueueFull", i, err)
		}
	}
	if got := s.nextID.Load(); got != 2 {
		t.Fatalf("nextID = %d after 10 refusals, want 2 (refusals must not mint IDs)", got)
	}

	close(gate)
	waitState(t, r1.Job, JobDone)
	waitState(t, r2.Job, JobDone)
	r3 := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 3})
	if r3.Job.ID != "j000003" {
		t.Fatalf("post-refusal job ID = %s, want j000003 (IDs must stay dense)", r3.Job.ID)
	}
}

// TestResubmitPendingCountsDrops: a restarted daemon that cannot
// replay every live journal record must say so, in
// Stats.PendingDropped, instead of letting it vanish. A record no boot
// could admit (its experiment left the registry) is dropped once and
// committed, so the next boot neither replays nor counts it again; a
// record refused by a full queue stays live for the next boot.
func TestResubmitPendingCountsDrops(t *testing.T) {
	t.Run("unknown experiment", func(t *testing.T) {
		dir := t.TempDir()
		writeLiveAccepts(t, dir, []Spec{
			{Experiment: "stub", Seed: 1},
			{Experiment: "vanished", Seed: 2}, // not in the restarted registry
			{Experiment: "stub", Seed: 3},
		})
		s := newStubServer(t, Config{CacheDir: dir, QueueDepth: 8}, nil)
		st := s.Stats()
		if st.PendingDropped != 1 || st.Journal.Replayed != 2 {
			t.Fatalf("first boot: PendingDropped = %d, replayed %d; want 1 and 2", st.PendingDropped, st.Journal.Replayed)
		}
		waitStats(t, s, "replayed jobs to finish", func(st Stats) bool { return st.Jobs[JobDone] == 2 })
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		s2 := newStubServer(t, Config{CacheDir: dir, QueueDepth: 8}, nil)
		if st := s2.Stats(); st.PendingDropped != 0 || st.Journal.Replayed != 0 || st.Journal.Live != 0 {
			t.Fatalf("second boot: PendingDropped = %d, journal %+v; want nothing left to replay",
				st.PendingDropped, st.Journal)
		}
	})
	t.Run("queue refilled", func(t *testing.T) {
		dir := t.TempDir()
		specs := []Spec{{Experiment: "stub", Seed: 1}, {Experiment: "stub", Seed: 2}, {Experiment: "stub", Seed: 3}}
		writeLiveAccepts(t, dir, specs)
		gate := make(chan struct{})
		// One worker slot plus one queue slot: two of the three live
		// records fit; replay retries the third for about a second,
		// then counts it dropped and leaves it live.
		s := newStubServer(t, Config{CacheDir: dir, QueueDepth: 1, Workers: 1}, gate)
		st := s.Stats()
		if st.PendingDropped != 1 {
			t.Fatalf("PendingDropped = %d, want 1 (only 2 of 3 can fit)", st.PendingDropped)
		}
		if admitted := len(s.listJobs()); admitted+int(st.PendingDropped) != len(specs) {
			t.Fatalf("admitted %d + dropped %d != journaled %d", admitted, st.PendingDropped, len(specs))
		}
		if st.Journal.Live != len(specs) {
			t.Fatalf("journal live = %d, want %d (a queue-full drop stays live)", st.Journal.Live, len(specs))
		}
		close(gate)
	})
}

// TestReplayConvergesAfterHashChange: a live accept journaled under a
// hash its spec no longer canonicalizes to (the canonical form changed
// between versions) is replayed under the current hash, and the stale
// record is committed once that resubmission is durable. Every later
// boot then has nothing to replay and simulates nothing.
func TestReplayConvergesAfterHashChange(t *testing.T) {
	dir := t.TempDir()
	jl, _, err := openJournal(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Accept(strings.Repeat("e", 64), Spec{Experiment: "stub", Seed: 1}, ""); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	var sims atomic.Int64
	reg := stubRegistry(nil)
	stub := reg[0].Run
	reg[0].Run = func(o experiments.Options) error { sims.Add(1); return stub(o) }
	for boot := 1; boot <= 3; boot++ {
		s, err := NewServer(Config{CacheDir: dir, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		wantReplayed := uint64(0)
		if boot == 1 {
			wantReplayed = 1
			waitStats(t, s, "the replayed job to finish", func(st Stats) bool { return st.Jobs[JobDone] == 1 })
		}
		if st := s.Stats(); st.Journal.Replayed != wantReplayed || st.Journal.Live != 0 {
			t.Fatalf("boot %d: replayed %d, live %d; want %d and 0", boot, st.Journal.Replayed, st.Journal.Live, wantReplayed)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := sims.Load(); got != 1 {
			t.Fatalf("boot %d: %d simulations in all, want 1", boot, got)
		}
	}
}

// writeLiveAccepts journals an accept record for each spec, as a prior
// run would have left them: the content hash of a spec the stub
// registry knows, a fixed stand-in for one it does not.
func writeLiveAccepts(t *testing.T, dir string, specs []Spec) {
	t.Helper()
	jl, _, err := openJournal(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	for i, spec := range specs {
		hash := fmt.Sprintf("%064x", i)
		if can, err := Canonicalize(spec, stubRegistry(nil)); err == nil {
			hash = can.Hash
		}
		if err := jl.Accept(hash, spec, ""); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSSESlowSubscriberDoesNotBlockExecution: a subscriber that opens
// an event stream and never reads a byte must not stall the job (or
// anything else). Fan-out is cursor-based — the execution hot path
// only appends to the job's log — so the stalled stream's cost lands
// entirely on its own goroutine.
func TestSSESlowSubscriberDoesNotBlockExecution(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{}, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, res.Job, JobRunning)

	// A raw connection that sends the request and then goes silent:
	// never reads, never closes, just sits on the stream.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: sse\r\n\r\n", res.Job.ID)
	time.Sleep(50 * time.Millisecond) // let the handler attach

	close(gate)
	select {
	case <-res.Job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job did not finish while a slow SSE subscriber was attached")
	}
	if st, _ := res.Job.State(); st != JobDone {
		t.Fatalf("job state = %s, want done", st)
	}
}

// TestWriteJSONEncodeError: an unencodable response value becomes a
// clean 500 with a JSON error body, not a half-written 200.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.NaN()) // NaN has no JSON encoding
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body %q is not JSON: %v", rec.Body.String(), err)
	}
	if !strings.Contains(body.Error, "encoding response") {
		t.Fatalf("error body %q does not explain the encode failure", body.Error)
	}

	// The happy path still renders normally.
	rec2 := httptest.NewRecorder()
	writeJSON(rec2, http.StatusTeapot, apiError{Error: "x"})
	if rec2.Code != http.StatusTeapot || !strings.Contains(rec2.Body.String(), `"x"`) {
		t.Fatalf("happy path: status=%d body=%q", rec2.Code, rec2.Body.String())
	}
}

// TestStatsUnderLoad runs Submit, Stats, Cancel, and job lookups
// concurrently under the race detector. Stats must be a pure
// atomic-counter read — it shares no lock with admission — so this
// is primarily a data-race canary, plus a sanity check that the
// reconciled counters stay coherent.
func TestStatsUnderLoad(t *testing.T) {
	s := newStubServer(t, Config{Workers: 2, QueueDepth: 32, RetainJobs: 64}, nil)

	var wg sync.WaitGroup
	var submitted, refused atomic.Int64
	stop := make(chan struct{})

	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// A small seed range: some submissions coalesce, some
				// hit the cache, some simulate — all three paths race
				// against Stats and Cancel.
				_, err := s.Submit(Spec{Experiment: "stub", Seed: uint64(i % 7)})
				if err == ErrQueueFull {
					refused.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Cancel(fmt.Sprintf("j%06d", i%100))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				for state, n := range st.Jobs {
					if n < 0 {
						t.Errorf("Stats reports %d jobs in state %s", n, state)
						return
					}
				}
			}
		}()
	}

	// Wait for the submitters, then release the pollers.
	done := make(chan struct{})
	go func() {
		for submitted.Load()+refused.Load() < 800 {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("submitters did not finish")
	}
	close(stop)
	wg.Wait()

	// Let everything settle terminal, then reconcile the counters
	// against ground truth.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := s.listJobs()
		settled := true
		for _, j := range jobs {
			if !j.stateFast().terminal() {
				settled = false
				break
			}
		}
		if settled {
			byState := make(map[JobState]int)
			for _, j := range jobs {
				byState[j.stateFast()]++
			}
			st := s.Stats()
			for state, n := range byState {
				if st.Jobs[state] != n {
					t.Fatalf("Stats.Jobs[%s] = %d, registry holds %d", state, st.Jobs[state], n)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never settled terminal")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
