package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colt/internal/metrics"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, sr
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Name string
	Data string
}

// readSSE consumes an event stream to EOF (the handler closes it
// after the terminal "end" event).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Name != "" || cur.Data != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// TestEndToEndFig18 is the ISSUE's acceptance scenario against the
// real experiment engine: submit a quick fig18, stream its SSE
// progress to completion, fetch the report, resubmit the identical
// spec, and get byte-identical bytes from the cache — verified by
// hash — with zero additional simulation jobs.
func TestEndToEndFig18(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, err := NewServer(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"experiment": "fig18", "quick": true, "refs": 1000}`
	resp, sub := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", resp.StatusCode)
	}
	if sub.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	if resp.Header.Get("Location") != "/v1/jobs/"+sub.ID {
		t.Fatalf("Location = %q", resp.Header.Get("Location"))
	}

	// Stream progress to completion: the stream must carry per-phase
	// events and terminate with an "end" event showing state=done.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	events := readSSE(t, sseResp.Body)
	sseResp.Body.Close()
	var phases, dones int
	var final jobStatus
	for _, ev := range events {
		switch ev.Name {
		case "phase":
			phases++
		case "done":
			dones++
		case "end":
			if err := json.Unmarshal([]byte(ev.Data), &final); err != nil {
				t.Fatalf("end event data %q: %v", ev.Data, err)
			}
		}
	}
	if phases == 0 || dones == 0 {
		t.Fatalf("stream carried %d phase / %d done events, want both > 0", phases, dones)
	}
	if final.State != JobDone {
		t.Fatalf("end event state = %s (%s), want done", final.State, final.Error)
	}

	// Fetch the report and verify the advertised integrity hash.
	repResp, report := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/report")
	if repResp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", repResp.StatusCode, report)
	}
	sum := repResp.Header.Get("X-Report-Sha256")
	if sum == "" || metrics.Sum256Hex(report) != sum {
		t.Fatalf("report bytes do not match advertised hash %q", sum)
	}
	var parsed metrics.Report
	if err := json.Unmarshal(report, &parsed); err != nil || len(parsed.Records) == 0 {
		t.Fatalf("report unparseable or empty (err %v)", err)
	}

	// Resubmit the identical spec: a cache hit, byte-identical,
	// hash-verified, zero additional simulations.
	resp2, sub2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusCreated || !sub2.Cached {
		t.Fatalf("resubmit status=%d cached=%v, want 201 + cache hit", resp2.StatusCode, sub2.Cached)
	}
	if sub2.ReportSHA256 != sum {
		t.Fatalf("resubmit advertises hash %q, first run recorded %q", sub2.ReportSHA256, sum)
	}
	_, report2 := getBody(t, ts.URL+"/v1/jobs/"+sub2.ID+"/report")
	if !bytes.Equal(report, report2) {
		t.Fatal("cached serve is not byte-identical")
	}
	var st Stats
	_, statsBody := getBody(t, ts.URL+"/v1/stats")
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Simulations != 1 {
		t.Fatalf("simulations = %d after resubmit, want 1", st.Simulations)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("cache stats %+v recorded no hit", st.Cache)
	}
	if ep, ok := st.Endpoints["POST /v1/jobs"]; !ok || ep.Requests < 2 {
		t.Fatalf("endpoint stats missing submissions: %+v", st.Endpoints)
	}
}

// TestDrainDuringInflightPreservesResult is the SIGTERM half of the
// acceptance scenario (cmd/coltd wires SIGTERM to Drain; the smoke
// script exercises that wiring): a drain that begins while a job is
// running finishes the job and its report survives.
func TestDrainDuringInflightPreservesResult(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{CacheDir: t.TempDir()}, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sub := postJob(t, ts, `{"experiment": "stub", "seed": 6}`)
	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatal("submitted job untracked")
	}
	waitState(t, j, JobRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Readiness flips to draining (liveness stays 200); new
	// submissions are refused with Retry-After while the in-flight job
	// is still being finished.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hr, _ := getBody(t, ts.URL+"/v1/readyz")
		if hr.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hr, _ := getBody(t, ts.URL+"/v1/healthz"); hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness is not readiness)", hr.StatusCode)
	}
	refused, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "stub", "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable || refused.Header.Get("Retry-After") == "" {
		t.Fatalf("draining submit: status=%d Retry-After=%q, want 503 with Retry-After",
			refused.StatusCode, refused.Header.Get("Retry-After"))
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	repResp, report := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/report")
	if repResp.StatusCode != http.StatusOK || len(report) == 0 {
		t.Fatalf("report after drain: status=%d len=%d; in-flight result lost",
			repResp.StatusCode, len(report))
	}
}

func TestHTTPErrors(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := newStubServer(t, Config{Workers: 1, QueueDepth: 1, MaxRefs: 100}, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, method, path, body string
		status                   int
		contains                 string
	}{
		{"malformed JSON", "POST", "/v1/jobs", `{"experiment":`, http.StatusBadRequest, "invalid job spec"},
		{"unknown field", "POST", "/v1/jobs", `{"experiment": "stub", "bogus": 1}`, http.StatusBadRequest, "bogus"},
		{"unknown experiment", "POST", "/v1/jobs", `{"experiment": "nope"}`, http.StatusBadRequest, "valid experiments"},
		{"refs ceiling", "POST", "/v1/jobs", `{"experiment": "stub", "refs": 1000}`, http.StatusTooManyRequests, "ceiling"},
		{"NaN fault rate", "POST", "/v1/jobs", `{"experiment": "stub", "faults": "all=NaN"}`, http.StatusBadRequest, "outside [0, 1]"},
		{"frames ceiling", "POST", "/v1/jobs", `{"experiment": "stub", "quick": true, "frames": 17179869184}`, http.StatusBadRequest, "frames must be at most 4194304"},
		{"scale ceiling", "POST", "/v1/jobs", `{"experiment": "stub", "quick": true, "scale": 1e7}`, http.StatusBadRequest, "scale must be at most 30"},
		{"unknown job", "GET", "/v1/jobs/j999999", "", http.StatusNotFound, "unknown job"},
		{"unknown job report", "GET", "/v1/jobs/j999999/report", "", http.StatusNotFound, "unknown job"},
		{"unknown job cancel", "DELETE", "/v1/jobs/j999999", "", http.StatusNotFound, "unknown job"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, b)
			}
			if !strings.Contains(string(b), tc.contains) {
				t.Fatalf("body %q does not mention %q", b, tc.contains)
			}
		})
	}

	// Report of a still-running job is a 409; its trace a 404. Queue
	// overflow is a 503 with Retry-After.
	_, sub := postJob(t, ts, `{"experiment": "stub", "refs": 50, "seed": 1}`)
	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatalf("submission rejected: %+v", sub)
	}
	waitState(t, j, JobRunning)
	if resp, body := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/report"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("running-job report: status=%d body=%s, want 409", resp.StatusCode, body)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/trace"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traceless job trace: status=%d, want 404", resp.StatusCode)
	}
	postJob(t, ts, `{"experiment": "stub", "refs": 50, "seed": 2}`) // fill the queue slot
	full, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "stub", "refs": 50, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	full.Body.Close()
	if full.StatusCode != http.StatusServiceUnavailable || full.Header.Get("Retry-After") == "" {
		t.Fatalf("queue-full submit: status=%d Retry-After=%q, want 503 with Retry-After",
			full.StatusCode, full.Header.Get("Retry-After"))
	}
}

func TestHTTPCancelAndCoalesce(t *testing.T) {
	gate := make(chan struct{})
	s := newStubServer(t, Config{Workers: 1}, gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, a := postJob(t, ts, `{"experiment": "stub", "seed": 1}`)
	ja, _ := s.Job(a.ID)
	waitState(t, ja, JobRunning)

	// An identical submission coalesces: 200 (not 201), same job ID.
	resp, b := postJob(t, ts, `{"experiment": "stub", "seed": 1}`)
	if resp.StatusCode != http.StatusOK || b.ID != a.ID {
		t.Fatalf("coalesce: status=%d id=%s, want 200 and %s", resp.StatusCode, b.ID, a.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	waitState(t, ja, JobCanceled)
	// Canceling again conflicts.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	dresp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status = %d, want 409", dresp2.StatusCode)
	}
	close(gate)
}

// TestSSEReplayForLateSubscriber: a subscriber attaching after the
// job completed still sees the full event log plus the terminal end
// event.
func TestSSEReplayForLateSubscriber(t *testing.T) {
	s := newStubServer(t, Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sub := postJob(t, ts, `{"experiment": "stub", "seed": 1}`)
	j, _ := s.Job(sub.ID)
	waitState(t, j, JobDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Name)
	}
	want := []string{"jobs", "phase", "done", "end"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("late replay kinds = %v, want %v", kinds, want)
	}
}

func TestTraceArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sub := postJob(t, ts, `{"experiment": "table1", "quick": true, "refs": 500, "trace": true}`)
	j, _ := s.Job(sub.ID)
	waitState(t, j, JobDone)
	resp, trace := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("trace artifact unparseable or empty (err %v)", err)
	}

	// Tracing must not leak into the cache key: the same spec without
	// trace is a cache hit (which, having skipped simulation, has no
	// trace of its own).
	resp2, sub2 := postJob(t, ts, `{"experiment": "table1", "quick": true, "refs": 500}`)
	if resp2.StatusCode != http.StatusCreated || !sub2.Cached {
		t.Fatalf("untraced resubmit: status=%d cached=%v, want cache hit", resp2.StatusCode, sub2.Cached)
	}
	if tr, _ := getBody(t, ts.URL+"/v1/jobs/"+sub2.ID+"/trace"); tr.StatusCode != http.StatusNotFound {
		t.Fatalf("cache-hit job served a trace: %d", tr.StatusCode)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	s := newStubServer(t, Config{}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, body := getBody(t, ts.URL+"/v1/experiments")
	var out struct {
		Experiments []struct{ Name, Desc string } `json:"experiments"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != 1 || out.Experiments[0].Name != "stub" {
		t.Fatalf("experiments = %+v", out.Experiments)
	}
}
