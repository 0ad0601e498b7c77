package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mustMap runs MapPartial and fails the test on any job error.
func mustMap[T any](t *testing.T, p *Pool, n int, fn func(i int) (T, error)) []T {
	t.Helper()
	got, errs := MapPartial(p, n, fn)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	return got
}

func TestMapOrdersResultsByInput(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		p := New(workers)
		got := mustMap(t, p, 100, func(i int) (int, error) {
			// Skew completion order: later jobs finish first under
			// concurrency by burning less work.
			busy(100 - i)
			return i * i, nil
		})
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("job-%d", i*7%13), nil }
	serial := mustMap(t, New(1), 50, fn)
	parallel := mustMap(t, New(8), 50, fn)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("result[%d]: serial %q vs parallel %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got, errs := MapPartial[int](New(4), 0, nil); errs != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, errs)
	}
	got, errs := MapPartial(New(4), 1, func(i int) (int, error) { return 42, nil })
	if len(errs) != 1 || errs[0] != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("single map: %v, %v", got, errs)
	}
}

// TestMapPanicContained: a panicking job is converted to a *PanicError
// and never tears down the pool (regression: the pool used to re-panic
// after the wait, killing every job in the run).
func TestMapPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, errs := MapPartial(New(workers), 8, func(i int) (int, error) {
			if i == 5 {
				panic("boom")
			}
			return i, nil
		})
		err := errs[5]
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as an error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %T %v, want *PanicError", workers, err, err)
		}
		if pe.Job != 5 || !strings.Contains(err.Error(), "job 5") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: error lost job context: %v", workers, err)
		}
		if pe.Stack == "" {
			t.Errorf("workers=%d: stack not captured", workers)
		}
		if strings.Contains(err.Error(), "goroutine") {
			t.Errorf("workers=%d: Error() leaks the stack (nondeterministic text): %q", workers, err.Error())
		}
	}
}

// TestPoolSurvivesPanic: the same pool keeps scheduling after a job
// panicked — the process and its sibling jobs are unaffected.
func TestPoolSurvivesPanic(t *testing.T) {
	p := New(4)
	if _, errs := MapPartial(p, 4, func(i int) (int, error) {
		if i == 2 {
			panic(fmt.Sprintf("job %d exploding", i))
		}
		return i, nil
	}); errs[2] == nil {
		t.Fatal("expected the panic error")
	}
	got := mustMap(t, p, 4, func(i int) (int, error) { return i * 2, nil })
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("result[%d] = %d after panic recovery", i, v)
		}
	}
}

func TestMapPartialRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		results, errs := MapPartial(New(workers), 10, func(i int) (int, error) {
			started.Add(1)
			switch i {
			case 3:
				return 0, errors.New("job 3 failed")
			case 7:
				panic("job 7 panicked")
			}
			return i * i, nil
		})
		if started.Load() != 10 {
			t.Fatalf("workers=%d: only %d of 10 jobs ran", workers, started.Load())
		}
		for i := 0; i < 10; i++ {
			switch i {
			case 3:
				if errs[i] == nil || !strings.Contains(errs[i].Error(), "job 3 failed") {
					t.Errorf("workers=%d: errs[3] = %v", workers, errs[i])
				}
			case 7:
				var pe *PanicError
				if !errors.As(errs[i], &pe) || pe.Job != 7 {
					t.Errorf("workers=%d: errs[7] = %v, want *PanicError job 7", workers, errs[i])
				}
			default:
				if errs[i] != nil {
					t.Errorf("workers=%d: errs[%d] = %v", workers, i, errs[i])
				}
				if results[i] != i*i {
					t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, results[i], i*i)
				}
			}
		}
	}
}

func TestJobTimeout(t *testing.T) {
	p := New(2).SetJobTimeout(20 * time.Millisecond)
	block := make(chan struct{})
	defer close(block)
	_, errs := MapPartial(p, 3, func(i int) (int, error) {
		if i == 1 {
			<-block // hang until the test exits
		}
		return i, nil
	})
	var te *TimeoutError
	if !errors.As(errs[1], &te) {
		t.Fatalf("errs[1] = %v, want *TimeoutError", errs[1])
	}
	if te.Job != 1 || !strings.Contains(te.Error(), "timeout") {
		t.Errorf("timeout error = %v", te)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy jobs failed: %v %v", errs[0], errs[2])
	}
}

func TestRetry(t *testing.T) {
	transient := func(err error) bool { return strings.Contains(err.Error(), "transient") }
	t.Run("retries transient until success", func(t *testing.T) {
		var calls []int
		err := Retry(4, transient, func(attempt int) error {
			calls = append(calls, attempt)
			if attempt < 2 {
				return errors.New("transient glitch")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Retry: %v", err)
		}
		if len(calls) != 3 || calls[0] != 0 || calls[1] != 1 || calls[2] != 2 {
			t.Fatalf("attempts = %v, want [0 1 2]", calls)
		}
	})
	t.Run("exhausts attempts and returns last error", func(t *testing.T) {
		var calls int
		err := Retry(3, transient, func(attempt int) error {
			calls++
			return fmt.Errorf("transient %d", attempt)
		})
		if calls != 3 {
			t.Fatalf("fn called %d times, want 3", calls)
		}
		if err == nil || !strings.Contains(err.Error(), "transient 2") {
			t.Fatalf("err = %v, want the final attempt's error", err)
		}
	})
	t.Run("permanent error not retried", func(t *testing.T) {
		var calls int
		err := Retry(5, transient, func(int) error {
			calls++
			return errors.New("permanent")
		})
		if calls != 1 {
			t.Fatalf("permanent error retried %d times", calls)
		}
		if err == nil {
			t.Fatal("error swallowed")
		}
	})
	t.Run("timeouts never retried", func(t *testing.T) {
		var calls int
		err := Retry(5, func(error) bool { return true }, func(int) error {
			calls++
			return fmt.Errorf("wrapped: %w", &TimeoutError{Job: 0, Timeout: time.Second})
		})
		if calls != 1 {
			t.Fatalf("timeout retried %d times", calls)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("err = %v, want *TimeoutError", err)
		}
	})
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want %d", got, want)
	}
	if New(-3).Workers() != runtime.GOMAXPROCS(0) {
		t.Fatal("negative workers did not default")
	}
	if New(7).Workers() != 7 {
		t.Fatal("explicit workers not honored")
	}
}

// busy burns a little deterministic CPU so completion order under
// concurrency differs from dispatch order.
func busy(n int) uint64 {
	var x uint64 = 88172645463325252
	for i := 0; i < n*50; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// TestObserverSeesEveryJob: the per-job timing hook fires exactly once
// per job (including failed jobs) on both the serial and concurrent
// paths, with non-negative durations.
func TestObserverSeesEveryJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		var negative atomic.Bool
		seen := make([]atomic.Int64, 10)
		p := New(workers).SetObserver(func(job int, label string, d time.Duration) {
			calls.Add(1)
			if d < 0 {
				negative.Store(true)
			}
			seen[job].Add(1)
		})
		mustMap(t, p, 10, func(i int) (uint64, error) { return busy(i), nil })
		if calls.Load() != 10 {
			t.Errorf("workers=%d: observer fired %d times, want 10", workers, calls.Load())
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Errorf("workers=%d: job %d observed %d times", workers, i, seen[i].Load())
			}
		}
		if negative.Load() {
			t.Errorf("workers=%d: observer saw a negative duration", workers)
		}
	}

	// Failed jobs are observed too, and a failure stops nothing.
	var calls atomic.Int64
	p := New(1).SetObserver(func(int, string, time.Duration) { calls.Add(1) })
	_, errs := MapPartial(p, 5, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if errs[2] == nil {
		t.Fatal("error not propagated through timed path")
	}
	if calls.Load() != 5 {
		t.Errorf("observer fired %d times, want 5 (every job, the failed one too)", calls.Load())
	}
}

// TestObserverReceivesLabels: with a labeler installed, the observer
// sees each job's display label (on both pool paths); without one it
// sees "".
func TestObserverReceivesLabels(t *testing.T) {
	names := []string{"bench/astar/ths-on", "bench/mcf/ths-on", "bench/mcf/ths-off"}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		got := make(map[int]string)
		p := New(workers).
			SetLabeler(func(job int) string { return names[job] }).
			SetObserver(func(job int, label string, _ time.Duration) {
				mu.Lock()
				got[job] = label
				mu.Unlock()
			})
		mustMap(t, p, len(names), func(i int) (int, error) { return i, nil })
		for i, want := range names {
			if got[i] != want {
				t.Errorf("workers=%d: job %d labeled %q, want %q", workers, i, got[i], want)
			}
		}
	}

	p := New(1)
	if p.Label(0) != "" {
		t.Errorf("Label without labeler = %q, want empty", p.Label(0))
	}
	var sawLabel string
	p.SetObserver(func(_ int, label string, _ time.Duration) { sawLabel = label })
	mustMap(t, p, 1, func(i int) (int, error) { return i, nil })
	if sawLabel != "" {
		t.Errorf("observer got label %q from labeler-less pool, want empty", sawLabel)
	}
}

// TestSetterPanicsAfterMapStarted: pool configuration is frozen once
// scheduling begins — a late SetObserver/SetLabeler/SetJobTimeout/
// SetContext is a programming error and must panic, not be silently
// dropped or race with the workers (coltd constructs pools
// concurrently with request handling).
func TestSetterPanicsAfterMapStarted(t *testing.T) {
	setters := map[string]func(p *Pool){
		"SetObserver":   func(p *Pool) { p.SetObserver(func(int, string, time.Duration) {}) },
		"SetLabeler":    func(p *Pool) { p.SetLabeler(func(int) string { return "" }) },
		"SetJobTimeout": func(p *Pool) { p.SetJobTimeout(time.Second) },
		"SetContext":    func(p *Pool) { p.SetContext(context.Background()) },
	}
	for name, set := range setters {
		p := New(2)
		mustMap(t, p, 4, func(i int) (int, error) { return i, nil })
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s after Map started did not panic", name)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "after MapPartial started") {
					t.Errorf("%s panic message %q does not name the setter and the rule", name, msg)
				}
			}()
			set(p)
		}()
	}
}

// TestSetterPanicsWhileMapRunning: the guard also fires while a map is
// in flight, not just after one finished.
func TestSetterPanicsWhileMapRunning(t *testing.T) {
	p := New(2)
	inJob := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = MapPartial(p, 1, func(i int) (int, error) {
			close(inJob)
			<-release
			return i, nil
		})
	}()
	<-inJob
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetObserver during an in-flight Map did not panic")
			}
		}()
		p.SetObserver(func(int, string, time.Duration) {})
	}()
	close(release)
	<-done
}

// TestContextCancelSkipsUndispatchedJobs: once the pool's context is
// canceled, jobs that have not started fail with *CanceledError
// (unwrapping to context.Canceled) instead of running, on both the
// serial and concurrent paths, and jobs already completed keep their
// results.
func TestContextCancelSkipsUndispatchedJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 32
		results, errs := MapPartial(New(workers).SetContext(ctx), n, func(i int) (int, error) {
			ran.Add(1)
			if ran.Load() >= int64(workers) {
				cancel() // cancel once every worker has a job in hand
			}
			return i, nil
		})
		canceled := 0
		for i := 0; i < n; i++ {
			if errs[i] == nil {
				if results[i] != i {
					t.Errorf("workers=%d: results[%d] = %d, want %d", workers, i, results[i], i)
				}
				continue
			}
			canceled++
			var ce *CanceledError
			if !errors.As(errs[i], &ce) {
				t.Fatalf("workers=%d: errs[%d] = %v, want *CanceledError", workers, i, errs[i])
			}
			if ce.Job != i {
				t.Errorf("workers=%d: CanceledError.Job = %d, want %d", workers, ce.Job, i)
			}
			if !errors.Is(errs[i], context.Canceled) {
				t.Errorf("workers=%d: errs[%d] does not unwrap to context.Canceled", workers, i)
			}
		}
		if canceled == 0 {
			t.Errorf("workers=%d: no job was canceled", workers)
		}
		if int(ran.Load())+canceled != n {
			t.Errorf("workers=%d: ran %d + canceled %d != %d jobs", workers, ran.Load(), canceled, n)
		}
	}
}

// TestContextCancelBeforeMap: a pre-canceled context fails every job
// without running any.
func TestContextCancelBeforeMap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := MapPartial(New(4).SetContext(ctx), 8, func(i int) (int, error) {
		t.Error("job ran under a pre-canceled context")
		return i, nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}
