package server

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"colt/internal/fault"
	"colt/internal/server/faultfs"
)

// waitStats polls the server's stats until cond passes.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashReplayRecoversAcceptedJobs is the tentpole's recovery
// claim, driven at the unit level: a journal holding the accepts of a
// crashed run (one whose report landed pre-crash, one that never ran)
// is replayed at startup — the landed one completes as a cache hit
// without re-simulating, the lost one re-executes — and a graceful
// drain leaves the journal fully resolved.
func TestCrashReplayRecoversAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	reg := stubRegistry(nil)
	specLanded := Spec{Experiment: "stub", Quick: true, Seed: 1}
	specLost := Spec{Experiment: "stub", Quick: true, Seed: 2}
	canLanded, err := Canonicalize(specLanded, reg)
	if err != nil {
		t.Fatal(err)
	}
	canLost, err := Canonicalize(specLost, reg)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the crash aftermath: specLanded's report is in the
	// cache but its commit record died with the process; specLost has
	// only its accept record.
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	landedReport := []byte(`{"schema":"colt-metrics/1","records":[]}`)
	if err := c.Put(canLanded.Hash, "stub", landedReport); err != nil {
		t.Fatal(err)
	}
	jl, _, err := openJournal(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Accept(canLanded.Hash, specLanded, "tracetest-0001"); err != nil {
		t.Fatal(err)
	}
	if err := jl.Accept(canLost.Hash, specLost, "tracetest-0002"); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	s, err := NewServer(Config{CacheDir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Journal == nil || st.Journal.Replayed != 2 {
		t.Fatalf("journal stats %+v, want replayed=2", st.Journal)
	}
	st = waitStats(t, s, "replayed jobs to finish", func(st Stats) bool {
		return st.Jobs[JobDone] == 2
	})
	if st.Simulations != 1 {
		t.Fatalf("simulations = %d, want 1 (the landed report must serve as a hit)", st.Simulations)
	}
	// The landed report serves byte-identically after recovery.
	got, ok := s.Cache().Get(canLanded.Hash)
	if !ok || !bytes.Equal(got, landedReport) {
		t.Fatalf("recovered serve = %q, %v; want the pre-crash bytes", got, ok)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Everything accepted is now resolved: a reopen replays nothing.
	jl2, live, err := openJournal(faultfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if len(live) != 0 {
		t.Fatalf("journal still live after graceful drain: %d records", len(live))
	}
}

// TestBreakerTripsAndServesDegraded: a disk that fails every fsync
// trips the circuit breaker instead of failing jobs — results serve
// from the memory overlay, stats report the degraded state, and a
// drain exits cleanly.
func TestBreakerTripsAndServesDegraded(t *testing.T) {
	dir := t.TempDir()
	spec, err := fault.Parse("fsync-fail=1", faultfs.Ops())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		CacheDir:         dir,
		DiskFaults:       spec,
		DiskFaultSeed:    5,
		BreakerThreshold: 1,
		ProbeInterval:    time.Hour, // the hostile disk never recovers in this test
		Registry:         stubRegistry(nil),
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	a := mustSubmit(t, s, Spec{Experiment: "stub", Quick: true, Seed: 1})
	waitState(t, a.Job, JobDone)
	b, ok := s.Report(a.Job)
	if !ok || len(b) == 0 {
		t.Fatal("degraded server lost the job's report")
	}
	st := s.Stats()
	if !st.Degraded || st.DegradedEvents != 1 {
		t.Fatalf("stats %+v, want degraded=true after the first failed fsync", st)
	}
	if st.DiskFaultsInjected == 0 {
		t.Fatal("no injected faults counted despite fsync-fail=1")
	}
	if st.Cache.OverlayEntries != 1 {
		t.Fatalf("cache stats %+v, want the report in the memory overlay", st.Cache)
	}
	if _, serr := os.Stat(filepath.Join(dir, a.Job.Can.Hash+".json")); !os.IsNotExist(serr) {
		t.Fatal("degraded Put reached the disk")
	}
	// Still serving: a second distinct job also completes.
	c := mustSubmit(t, s, Spec{Experiment: "stub", Quick: true, Seed: 2})
	waitState(t, c.Job, JobDone)
	if st := s.Stats(); st.Journal.SkippedDegraded == 0 {
		t.Fatalf("journal stats %+v, want skipped accepts while degraded", st.Journal)
	}
	// Degrade-don't-die all the way out: the drain skips disk writes
	// and reports success.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("degraded drain errored: %v", err)
	}
}

// TestBreakerRecoversViaProbe: once the disk heals, the probe loop
// closes the breaker, flushes the overlay to disk, and durable
// serving resumes — the entry file appears where degraded mode had
// withheld it.
func TestBreakerRecoversViaProbe(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CacheDir:         dir,
		BreakerThreshold: 1,
		ProbeInterval:    10 * time.Millisecond,
		Registry:         stubRegistry(nil),
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Trip the breaker by hand (the disk itself is healthy, so the
	// very next probe can close it again).
	s.noteDiskOp(errors.New("synthetic disk failure"))
	if !s.Stats().Degraded {
		t.Fatal("breaker did not trip at threshold 1")
	}
	a := mustSubmit(t, s, Spec{Experiment: "stub", Quick: true, Seed: 3})
	waitState(t, a.Job, JobDone)

	st := waitStats(t, s, "breaker to close", func(st Stats) bool { return !st.Degraded })
	if st.Cache.OverlayEntries != 0 {
		t.Fatalf("cache stats %+v, want the overlay flushed on recovery", st.Cache)
	}
	if _, serr := os.Stat(filepath.Join(dir, a.Job.Can.Hash+".json")); serr != nil {
		t.Fatalf("flushed entry not on disk after recovery: %v", serr)
	}
	// And the result still serves, now durably.
	b, ok := s.Report(a.Job)
	if !ok || len(b) == 0 {
		t.Fatal("report lost across breaker recovery")
	}
}

// TestDeadlineShedsQueuedJob: a job still queued past its client
// deadline is shed at dispatch instead of simulated.
func TestDeadlineShedsQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1}, gate)
	a := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 1})
	waitState(t, a.Job, JobRunning)
	b := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 2, DeadlineMs: 20})
	time.Sleep(40 * time.Millisecond) // let the deadline lapse while queued
	close(gate)
	waitState(t, b.Job, JobCanceled)
	if _, msg := b.Job.State(); !strings.Contains(msg, "deadline exceeded while queued") {
		t.Fatalf("shed job error = %q", msg)
	}
	waitState(t, a.Job, JobDone)
	st := s.Stats()
	if st.DeadlineShed != 1 {
		t.Fatalf("deadline_shed = %d, want 1", st.DeadlineShed)
	}
	if st.Simulations != 1 {
		t.Fatalf("simulations = %d; the shed job was executed", st.Simulations)
	}
}

// TestDeadlineCancelsRunningJob: the deadline propagates into the
// execution context, so a run that outlives the client's patience is
// canceled mid-flight.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	gate := make(chan struct{}) // never closed: only the deadline can end the run
	s := newStubServer(t, Config{}, gate)
	a := mustSubmit(t, s, Spec{Experiment: "stub", Seed: 4, DeadlineMs: 30})
	waitState(t, a.Job, JobCanceled)
	if _, msg := a.Job.State(); !strings.Contains(msg, "deadline exceeded while running") {
		t.Fatalf("canceled job error = %q", msg)
	}
	if st := s.Stats(); st.DeadlineShed != 1 {
		t.Fatalf("deadline_shed = %d, want 1", st.DeadlineShed)
	}
}

// TestDeadlineExcludedFromCacheKey: patience is wall-clock policy,
// never identity — specs differing only in deadline share one content
// address (and one cache entry).
func TestDeadlineExcludedFromCacheKey(t *testing.T) {
	reg := stubRegistry(nil)
	base, err := Canonicalize(Spec{Experiment: "stub", Quick: true, Seed: 9}, reg)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := Canonicalize(Spec{Experiment: "stub", Quick: true, Seed: 9, DeadlineMs: 500}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Hash != dl.Hash {
		t.Fatalf("deadline_ms changed the content hash: %s vs %s", base.Hash, dl.Hash)
	}
	if _, err := Canonicalize(Spec{Experiment: "stub", DeadlineMs: -1}, reg); err == nil {
		t.Fatal("negative deadline_ms accepted")
	}
}
