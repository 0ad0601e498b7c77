// Package sched is the experiment engine's worker-pool scheduler. The
// paper's artifact set is a grid of independent (benchmark × setup)
// simulations; sched fans such job grids out across GOMAXPROCS
// goroutines while keeping the OUTPUT deterministic: results are
// gathered into a slice indexed by job input order, so a table built
// from them is byte-identical whether the pool runs one worker or
// sixteen. Determinism of each job's CONTENT is the caller's
// responsibility — experiment jobs seed their RNGs from
// (seed, benchmark, setup) via rng.Stream, never from shared mutable
// state, so completion order cannot leak into results.
//
// Jobs inside one benchmark run (the per-variant TLB simulators) are
// deliberately NOT split across workers: all variants of a benchmark
// share one reference stream and one set of OS shootdown events, so
// they must advance in lockstep on a single goroutine.
//
// Failure containment: a panicking job never tears down the pool or
// the process — it is converted into a *PanicError for that job, on
// both the serial and concurrent paths. Pools can also bound each
// job's wall-clock via SetJobTimeout, and MapPartial runs every job
// to completion reporting per-job errors, which is what lets the
// experiment drivers render partial results instead of aborting.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a job panic converted to an error. Error() is a pure
// function of the job index and panic value — the stack (kept in
// Stack for debugging) is excluded so failure reports stay
// byte-identical across runs and parallel widths.
type PanicError struct {
	Job   int
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %d panicked: %v", e.Job, e.Value)
}

// TimeoutError is a job that exceeded the pool's per-job timeout.
type TimeoutError struct {
	Job     int
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sched: job %d exceeded %v timeout", e.Job, e.Timeout)
}

// CanceledError is a job that never ran because the pool's context was
// canceled before the job was dispatched. It unwraps to the context's
// error, so errors.Is(err, context.Canceled) works on it.
type CanceledError struct {
	Job   int
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sched: job %d canceled: %v", e.Job, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// Pool schedules independent jobs over a fixed number of workers. The
// zero value is not useful; use New.
//
// Configuration (SetObserver, SetLabeler, SetJobTimeout, SetContext)
// must complete before the first MapPartial call: once a map has
// started the pool's configuration is frozen, and any further setter
// call panics. The guard exists because servers construct pools
// concurrently with request handling, where a silently-ignored or
// racy late registration would be far harder to debug than a panic.
type Pool struct {
	workers    int
	mu         sync.Mutex
	started    bool
	jobTimeout time.Duration
	ctx        context.Context
	observe    func(job int, label string, d time.Duration)
	labeler    func(job int) string
}

// New returns a pool running up to workers jobs concurrently. Values
// <= 0 select runtime.GOMAXPROCS(0), the number of CPUs the runtime
// will actually use.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency limit.
func (p *Pool) Workers() int { return p.workers }

// configure runs a setter under the pool's configuration guard,
// panicking if any MapPartial has already started. The panic (not
// a silent drop) is deliberate: a late registration is a programming
// error, and under concurrent construction a dropped observer would
// surface as mysteriously missing timings instead of a stack trace.
func (p *Pool) configure(what string, set func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		panic("sched: " + what + " called after MapPartial started; configure the pool before scheduling jobs")
	}
	set()
}

// SetObserver registers fn to receive each job's wall-clock duration
// as it completes (the metrics layer's per-job timing hook), together
// with the job's human-readable label from the pool's labeler (empty
// when none is set). fn may be called concurrently from several
// workers and must be safe for that; it is invoked for failed jobs
// too. Panics if called after the pool has started scheduling.
// Returns p for chaining.
func (p *Pool) SetObserver(fn func(job int, label string, d time.Duration)) *Pool {
	p.configure("SetObserver", func() { p.observe = fn })
	return p
}

// SetLabeler registers fn mapping a job index to the job's display
// label (e.g. "bench/mcf/ths-on"), so timing sidecars and progress
// lines can name jobs instead of showing opaque indices. Panics if
// called after the pool has started scheduling. Returns p for
// chaining.
func (p *Pool) SetLabeler(fn func(job int) string) *Pool {
	p.configure("SetLabeler", func() { p.labeler = fn })
	return p
}

// SetContext attaches ctx to the pool: once ctx is canceled, jobs that
// have not yet been dispatched fail with a *CanceledError wrapping
// ctx's error instead of running. Jobs already in flight are not
// interrupted — the simulator has no preemption points — so
// cancellation granularity is the job unless the job's own code also
// watches ctx. Panics if called after the pool has started
// scheduling. Returns p for chaining.
func (p *Pool) SetContext(ctx context.Context) *Pool {
	p.configure("SetContext", func() { p.ctx = ctx })
	return p
}

// Label resolves job's display label ("" without a labeler).
func (p *Pool) Label(job int) string {
	if p.labeler == nil {
		return ""
	}
	return p.labeler(job)
}

// SetJobTimeout bounds each job's wall-clock at d (<= 0 disables, the
// default). A job that exceeds the bound fails with *TimeoutError;
// its goroutine keeps running to completion in the background (the
// simulator has no preemption points), but its result is discarded.
// Timeouts are inherently wall-clock-dependent, so deterministic runs
// should set a bound generous enough that it only fires on hangs.
// Panics if called after the pool has started scheduling. Returns p
// for chaining.
func (p *Pool) SetJobTimeout(d time.Duration) *Pool {
	p.configure("SetJobTimeout", func() { p.jobTimeout = d })
	return p
}

// canceled returns the pool context's error, or nil when no context is
// attached or it is still live.
func (p *Pool) canceled() error {
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// timed runs fn(i) and reports its duration and label to the
// observer, if any.
func (p *Pool) timed(i int, fn func(i int) error) error {
	if p.observe == nil {
		return fn(i)
	}
	start := time.Now()
	err := fn(i)
	p.observe(i, p.Label(i), time.Since(start))
	return err
}

// runJob runs one job with panic containment and the pool's per-job
// timeout. Panics become *PanicError; overruns become *TimeoutError.
func (p *Pool) runJob(i int, fn func(i int) error) error {
	run := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Job: i, Value: r, Stack: string(debug.Stack())}
			}
		}()
		return p.timed(i, fn)
	}
	if p.jobTimeout <= 0 {
		return run()
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	timer := time.NewTimer(p.jobTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return &TimeoutError{Job: i, Timeout: p.jobTimeout}
	}
}

// MapPartial runs fn(i) for EVERY i in [0, n) on the pool's workers —
// an error or panic in one job never cancels the others — and returns
// both slices indexed by job input order, never by completion order:
// errs[i] is nil exactly when results[i] is valid. A panic in fn is
// contained to its job as a *PanicError; once the pool's context is
// canceled, undispatched jobs fail with a *CanceledError. This is the
// graceful-degradation entry point: callers render the surviving jobs
// and report the failed ones.
func MapPartial[T any](p *Pool, n int, fn func(i int) (T, error)) (results []T, errs []error) {
	// Freeze the pool's configuration: setters panic from here on, so
	// the unguarded field reads below can never race with a writer.
	p.mu.Lock()
	p.started = true
	p.mu.Unlock()
	if n <= 0 {
		return nil, nil
	}
	results = make([]T, n)
	errs = make([]error, n)
	job := func(i int) {
		if cause := p.canceled(); cause != nil {
			errs[i] = &CanceledError{Job: i, Cause: cause}
			return
		}
		errs[i] = p.runJob(i, func(i int) error {
			var err error
			results[i], err = fn(i)
			return err
		})
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Degenerate pool: run inline, in order, so -parallel 1 has the
		// exact serial semantics of the pre-scheduler code.
		for i := 0; i < n; i++ {
			job(i)
		}
		return results, errs
	}
	var (
		next atomic.Int64 // next job index to claim
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// Retry runs fn up to attempts times (attempt is 0-based), returning
// nil on the first success. Only errors for which transient returns
// true are retried; other errors — including *TimeoutError, which is
// wall-clock-dependent — return immediately. fn's outcome must be a
// deterministic function of the attempt number, so the retry
// trajectory is identical at every parallel width.
func Retry(attempts int, transient func(error) bool, fn func(attempt int) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if err = fn(attempt); err == nil {
			return nil
		}
		var te *TimeoutError
		if errors.As(err, &te) || transient == nil || !transient(err) {
			return err
		}
	}
	return err
}
