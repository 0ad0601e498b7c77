package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"colt/internal/metrics"
	"colt/internal/server/faultfs"
)

// countingFS counts the cache entry reads (<key>.json, not sidecars)
// that pass through a cache's filesystem seam.
type countingFS struct {
	faultfs.FS
	entryReads atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	if base := filepath.Base(name); strings.HasSuffix(base, ".json") && !strings.HasSuffix(base, metaSuffix) {
		c.entryReads.Add(1)
	}
	return c.FS.ReadFile(name)
}

// TestReportReadsPerRequest pins how often serving a report reads and
// verifies its cache entry: an executed job's first fetch takes the
// bytes it committed (no read); a cache-hit request — submit, then
// first fetch — reads and verifies once, at admission; every later
// fetch of the same job reads and verifies once more.
func TestReportReadsPerRequest(t *testing.T) {
	s := newStubServer(t, Config{CacheDir: t.TempDir()}, nil)
	// Swapped in before the first submission, so every cache access is
	// ordered after the write.
	cfs := &countingFS{FS: s.cache.fs}
	s.cache.fs = cfs
	spec := Spec{Experiment: "stub", Seed: 5}
	expect := func(step string, reads int64, hits uint64) {
		t.Helper()
		if got, gotHits := cfs.entryReads.Load(), s.Stats().Cache.Hits; got != reads || gotHits != hits {
			t.Fatalf("%s: %d entry reads and %d verified hits, want %d and %d", step, got, gotHits, reads, hits)
		}
	}

	run := mustSubmit(t, s, spec)
	waitState(t, run.Job, JobDone)
	want, ok := s.Report(run.Job)
	if !ok {
		t.Fatal("executed job has no report")
	}
	expect("executed job's first fetch", 0, 0)

	hit := mustSubmit(t, s, spec)
	if !hit.Cached || hit.ReportSum != metrics.Sum256Hex(want) {
		t.Fatalf("resubmission %+v, want a cache hit verified against %s", hit, metrics.Sum256Hex(want))
	}
	expect("hit admission", 1, 1)
	if got, ok := s.Report(hit.Job); !ok || !bytes.Equal(got, want) {
		t.Fatal("the hit's first fetch served different bytes")
	}
	expect("hit's first fetch", 1, 1)
	if got, ok := s.Report(hit.Job); !ok || !bytes.Equal(got, want) {
		t.Fatal("the hit's second fetch served different bytes")
	}
	expect("hit's second fetch", 2, 2)
}

// TestCorruptionAfterAdmission corrupts an entry between a hit's
// admission and its fetch. The fetch serves the bytes admission
// verified, labeled with their own SHA-256; the next submission of the
// spec finds the corruption, is not a hit, and recomputes the same
// bytes.
func TestCorruptionAfterAdmission(t *testing.T) {
	dir := t.TempDir()
	s := newStubServer(t, Config{CacheDir: dir}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const spec = `{"experiment": "stub", "seed": 13}`
	fetch := func(id string) []byte {
		t.Helper()
		resp, b := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report of %s: status %d: %s", id, resp.StatusCode, b)
		}
		if sum := resp.Header.Get("X-Report-Sha256"); sum != metrics.Sum256Hex(b) {
			t.Fatalf("report of %s hashes to %s, X-Report-Sha256 says %q", id, metrics.Sum256Hex(b), sum)
		}
		return b
	}
	wait := func(id string) {
		t.Helper()
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not tracked", id)
		}
		waitState(t, j, JobDone)
	}

	_, first := postJob(t, ts, spec)
	wait(first.ID)
	want := fetch(first.ID)

	_, hit := postJob(t, ts, spec)
	if !hit.Cached {
		t.Fatalf("resubmission %+v, want a cache hit", hit)
	}
	if err := os.WriteFile(filepath.Join(dir, hit.Hash+".json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := fetch(hit.ID); !bytes.Equal(got, want) {
		t.Fatal("hit fetched after corruption did not serve the bytes admission verified")
	}

	_, again := postJob(t, ts, spec)
	if again.Cached {
		t.Fatal("corrupted entry admitted as a cache hit")
	}
	wait(again.ID)
	if got := fetch(again.ID); !bytes.Equal(got, want) {
		t.Fatal("recomputed report is not byte-identical to the original")
	}
	if st := s.Stats(); st.Cache.Corrupt != 1 || st.Simulations != 2 {
		t.Fatalf("corrupt=%d simulations=%d, want 1 and 2", st.Cache.Corrupt, st.Simulations)
	}
}

// TestKeptReportsStayWithinCap floods a server at its RetainJobs floor
// with unfetched cache hits from several goroutines under a cap of a
// few reports. The kept bytes never pass the cap, jobs past it keep
// nothing and still serve their bytes from the cache, and the count
// returns to zero once every job has been fetched or evicted.
func TestKeptReportsStayWithinCap(t *testing.T) {
	s := newStubServer(t, Config{CacheDir: t.TempDir(), RetainJobs: 1}, nil)
	spec := Spec{Experiment: "stub", Seed: 3}
	first := mustSubmit(t, s, spec)
	waitState(t, first.Job, JobDone)
	want, ok := s.Report(first.Job)
	if !ok {
		t.Fatal("executed job has no report")
	}
	if n := s.keptBytes.Load(); n != 0 {
		t.Fatalf("%d bytes kept after the only job was fetched", n)
	}
	// The worker that ran the first job read keptLimit before it
	// finished the job, and waitState ordered that finish before this
	// write; every later reader starts after it.
	s.keptLimit = 5 * int64(len(want))

	const clients, hitsEach = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hitsEach; i++ {
				res, err := s.Submit(spec)
				if err != nil || !res.Cached {
					t.Errorf("submission %+v, %v: want a cache hit", res, err)
					return
				}
				if n := s.keptBytes.Load(); n < 0 || n > s.keptLimit {
					t.Errorf("%d bytes kept, cap %d", n, s.keptLimit)
					return
				}
			}
		}()
	}
	wg.Wait()

	jobs := s.listJobs()
	if len(jobs) > numShards {
		t.Fatalf("%d jobs tracked at the RetainJobs floor of %d", len(jobs), numShards)
	}
	var holding int
	for _, j := range jobs {
		if j.kept.Load() != nil {
			holding++
		}
	}
	if holding == 0 || holding > 5 || holding == len(jobs) {
		t.Fatalf("%d of %d tracked jobs keep a report under a cap of 5 reports", holding, len(jobs))
	}
	for _, j := range jobs {
		if b, ok := s.Report(j); !ok || !bytes.Equal(b, want) {
			t.Fatalf("job %s served different bytes", j.ID)
		}
	}
	if n := s.keptBytes.Load(); n != 0 {
		t.Fatalf("%d bytes still counted after every job was fetched or evicted", n)
	}
}
