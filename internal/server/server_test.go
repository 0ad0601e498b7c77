package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"colt/internal/experiments"
	"colt/internal/metrics"
)

// stubRegistry returns a one-entry registry whose driver emits a
// deterministic record derived from the run's seed — fast, but with
// the same byte-stable report property as the real engine. A non-nil
// gate makes the driver block until the gate closes (or the run's
// context cancels), which is how tests hold jobs in flight.
func stubRegistry(gate chan struct{}) []experiments.NamedExperiment {
	return []experiments.NamedExperiment{{
		Name: "stub", Desc: "test stub",
		Run: func(opts experiments.Options) error {
			if gate != nil {
				select {
				case <-gate:
				case <-opts.Ctx.Done():
					return opts.Ctx.Err()
				}
			}
			if opts.Progress != nil {
				opts.Progress.AddJobs(1)
				opts.Progress.Phase("stub/s", "run")
				opts.Progress.Done("stub/s", true)
			}
			opts.Metrics.Add(metrics.Record{
				Kind: "bench", Bench: "stub", Setup: "s", Seed: opts.Seed,
			}, 0)
			return nil
		},
	}}
}

func newStubServer(t *testing.T, cfg Config, gate chan struct{}) *Server {
	t.Helper()
	cfg.Registry = stubRegistry(gate)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitState polls until the job reaches want (fatal on timeout or on
// reaching a different terminal state).
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	// Generous: the tests that run real simulations can near 10s under
	// the race detector on a loaded host.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, errMsg := j.State()
		if st == want {
			return
		}
		if st.terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (%s), want %s", j.ID, st, errMsg, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func mustSubmit(t *testing.T, s *Server, spec Spec) SubmitResult {
	t.Helper()
	res, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(%+v): %v", spec, err)
	}
	return res
}

// TestSecondServeIsByteIdenticalCacheHit is the cache-layer satellite:
// an identical resubmission is served from cache — verified
// byte-for-byte against the first report and against the recorded
// hash — with the hit counter up and no new simulation started.
func TestSecondServeIsByteIdenticalCacheHit(t *testing.T) {
	s := newStubServer(t, Config{}, nil)
	spec := Spec{Experiment: "stub", Quick: true, Seed: 7}

	first := mustSubmit(t, s, spec)
	if !first.Created || first.Cached {
		t.Fatalf("first submit: %+v, want fresh execution", first)
	}
	waitState(t, first.Job, JobDone)
	b1, ok := s.Report(first.Job)
	if !ok {
		t.Fatal("no report for completed job")
	}

	second := mustSubmit(t, s, spec)
	if !second.Cached {
		t.Fatalf("second submit: %+v, want cache hit", second)
	}
	if st, _ := second.Job.State(); st != JobDone {
		t.Fatalf("cached job state = %s, want done immediately", st)
	}
	b2, ok := s.Report(second.Job)
	if !ok || !bytes.Equal(b1, b2) {
		t.Fatal("second serve is not byte-identical to the first")
	}
	e, ok := s.cache.Entry(first.Job.Can.Hash)
	if !ok || metrics.Sum256Hex(b2) != e.Sum {
		t.Fatalf("served bytes do not verify against recorded hash %q", e.Sum)
	}

	st := s.Stats()
	if st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 (cache hit must not simulate)", st.Simulations)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("cache stats %+v recorded no hit", st.Cache)
	}
}

// TestCorruptedEntryIsRecomputed: corruption behind the daemon's back
// is detected at the next submission, which transparently re-runs the
// simulation and restores byte-identical service.
func TestCorruptedEntryIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	s := newStubServer(t, Config{CacheDir: dir}, nil)
	spec := Spec{Experiment: "stub", Quick: true, Seed: 11}

	first := mustSubmit(t, s, spec)
	waitState(t, first.Job, JobDone)
	b1, _ := s.Report(first.Job)

	entry := filepath.Join(dir, first.Job.Can.Hash+".json")
	if err := os.WriteFile(entry, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	second := mustSubmit(t, s, spec)
	if second.Cached {
		t.Fatal("corrupted entry served as a cache hit")
	}
	waitState(t, second.Job, JobDone)
	b2, ok := s.Report(second.Job)
	if !ok || !bytes.Equal(b1, b2) {
		t.Fatal("recomputed report is not byte-identical to the original")
	}
	st := s.Stats()
	if st.Cache.Corrupt != 1 {
		t.Fatalf("cache stats %+v, want corrupt=1", st.Cache)
	}
	if st.Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (corruption forces recompute)", st.Simulations)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newStubServer(t, Config{}, nil)
	if _, err := s.Submit(Spec{Experiment: "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("stub")) {
		t.Fatalf("unknown-experiment error %q does not list the valid set", got)
	}
	if _, err := s.Submit(Spec{Experiment: "stub", Refs: -1}); err == nil {
		t.Fatal("negative refs accepted")
	}
}

func TestAdmissionRefsCeiling(t *testing.T) {
	s := newStubServer(t, Config{MaxRefs: 100}, nil)
	_, err := s.Submit(Spec{Experiment: "stub", Refs: 1_000})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if _, err := s.Submit(Spec{Experiment: "stub", Refs: 100, Quick: true}); err != nil {
		t.Fatalf("at-limit spec refused: %v", err)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1}, gate)
	a := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, a.Job, JobRunning)                     // worker occupied
	mustSubmit(t, s, Spec{Experiment: "stub", Seed: 2}) // fills the slot
	_, err := s.Submit(Spec{Experiment: "stub", Seed: 3})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(gate)
}

// TestCoalescing: an identical spec submitted while the first is
// still in flight shares its execution instead of queueing a second.
func TestCoalescing(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{}, gate)
	spec := Spec{Experiment: "stub", Seed: 5}
	a := mustSubmit(t, s, spec)
	waitState(t, a.Job, JobRunning)
	b := mustSubmit(t, s, spec)
	if b.Created || b.Job != a.Job {
		t.Fatalf("identical in-flight spec did not coalesce: %+v", b)
	}
	close(gate)
	waitState(t, a.Job, JobDone)
	st := s.Stats()
	if st.Simulations != 1 || st.Coalesced != 1 {
		t.Fatalf("simulations=%d coalesced=%d, want 1 and 1", st.Simulations, st.Coalesced)
	}
	if a.Job.snapshot().Coalesced != 1 {
		t.Fatal("job does not record its coalesced submission")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1}, gate)
	a := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, a.Job, JobRunning)
	b := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 2})
	if !s.Cancel(b.Job.ID) {
		t.Fatal("cancel of queued job refused")
	}
	waitState(t, b.Job, JobCanceled)
	close(gate)
	waitState(t, a.Job, JobDone)
	if st := s.Stats(); st.Simulations != 1 {
		t.Fatalf("simulations = %d; canceled queued job was executed", st.Simulations)
	}
	if s.Cancel(b.Job.ID) {
		t.Fatal("second cancel of a terminal job succeeded")
	}
}

func TestCancelRunningJob(t *testing.T) {
	gate := make(chan struct{}) // never closed: job runs until canceled
	s := newStubServer(t, Config{}, gate)
	a := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 9})
	waitState(t, a.Job, JobRunning)
	if !s.Cancel(a.Job.ID) {
		t.Fatal("cancel of running job refused")
	}
	waitState(t, a.Job, JobCanceled)
	if _, ok := s.Report(a.Job); ok {
		t.Fatal("canceled job has a report; partial results must not be cached")
	}
	if st := s.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("canceled run polluted the cache: %+v", st.Cache)
	}
}

// TestDrainCheckpointsQueuedAndRestartReuses is the drain state
// machine end to end: the in-flight job finishes and lands in the
// cache, every still-queued job keeps a live journal record — one
// admitted while the disk breaker was open is journaled at drain — and
// a restarted server replays exactly those jobs and serves the
// finished result from cache.
func TestDrainCheckpointsQueuedAndRestartReuses(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := Config{CacheDir: dir, Workers: 1, QueueDepth: 8, BreakerThreshold: 1, ProbeInterval: 10 * time.Millisecond}
	cfg.Registry = stubRegistry(gate)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	inflight := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, inflight.Job, JobRunning)
	queuedA := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 2})
	queuedB := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 3})
	// Trip the breaker by hand (the disk is healthy, so the next probe
	// closes it): the third queued job is admitted without a record.
	s.noteDiskOp(errors.New("synthetic disk failure"))
	queuedC := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 4})
	if st := s.Stats(); !st.Degraded || st.Journal.SkippedDegraded != 1 || st.Journal.Live != 3 {
		t.Fatalf("stats %+v, journal %+v; want degraded, 1 skipped accept, 3 live", st, st.Journal)
	}
	waitStats(t, s, "breaker to close", func(st Stats) bool { return !st.Degraded })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.isDraining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(Spec{Experiment: "stub", Seed: 5}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining server admitted a submission: %v", err)
	}
	close(gate) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	if st, _ := inflight.Job.State(); st != JobDone {
		t.Fatalf("in-flight job state = %s, want done (drain must not lose it)", st)
	}
	b1, ok := s.Report(inflight.Job)
	if !ok {
		t.Fatal("in-flight job's result lost across drain")
	}
	for _, q := range []*Job{queuedA.Job, queuedB.Job, queuedC.Job} {
		if st, _ := q.State(); st != JobCanceled {
			t.Fatalf("queued job state = %s, want canceled (left for replay)", st)
		}
	}
	if live := s.journal.Live(); live != 3 {
		t.Fatalf("journal live = %d after drain, want the 3 queued jobs", live)
	}

	// Restart: the journal replays the queued jobs (they now execute,
	// the registry is fresh and open), and the finished result is
	// served from the reopened cache without simulating.
	cfg2 := Config{CacheDir: dir, Workers: 1}
	cfg2.Registry = stubRegistry(nil)
	s2, err := NewServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if st := s2.Stats(); st.Journal.Replayed != 3 || st.PendingDropped != 0 {
		t.Fatalf("restart replayed %d jobs, dropped %d; want 3 and 0", st.Journal.Replayed, st.PendingDropped)
	}
	waitStats(t, s2, "replayed jobs to finish", func(st Stats) bool { return st.Jobs[JobDone] == 3 })
	res := mustSubmit(t, s2, Spec{Experiment: "stub", Seed: 1})
	if !res.Cached {
		t.Fatal("restarted server did not reuse the drained result")
	}
	b2, _ := s2.Report(res.Job)
	if !bytes.Equal(b1, b2) {
		t.Fatal("restarted serve is not byte-identical")
	}
	if st := s2.Stats(); st.Simulations != 3 {
		t.Fatalf("restart ran %d simulations, want exactly the 3 queued jobs", st.Simulations)
	}
}

func TestDrainIsIdempotent(t *testing.T) {
	s := newStubServer(t, Config{}, nil)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Experiment: "stub"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}
