package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colt/internal/cluster"
	"colt/internal/metrics"
)

// swapHandler lets an httptest listener come up before the server it
// will front exists. The fleet bootstrap needs every peer's URL in
// hand before any NewServer call (the cluster config carries them),
// so listeners boot first answering 503, then the real handlers swap
// in.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := sh.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "booting", http.StatusServiceUnavailable)
}

// testNode is one member of an httptest fleet.
type testNode struct {
	id string
	s  *Server
	ts *httptest.Server
	sw *swapHandler
}

// kill simulates a node crash: the listener drops (peers start
// missing heartbeats) and the process state is torn down without
// drain niceties.
func (n *testNode) kill() {
	n.ts.Close()
	n.s.Close()
}

// newTestCluster boots n coltd servers wired into one fleet. mutate
// (optional) edits each node's Config after the cluster block is
// filled in — tests use it to install gated registries.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		sw := &swapHandler{}
		nodes[i] = &testNode{
			id: fmt.Sprintf("n%d", i+1),
			ts: httptest.NewServer(sw),
			sw: sw,
		}
	}
	for i, nd := range nodes {
		peers := make(map[string]string)
		for _, other := range nodes {
			if other.id != nd.id {
				peers[other.id] = other.ts.URL
			}
		}
		cfg := Config{
			Registry: stubRegistry(nil),
			Cluster: &cluster.Config{
				NodeID:            nd.id,
				Peers:             peers,
				HeartbeatInterval: 25 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("node %s: %v", nd.id, err)
		}
		nd.s = s
		h := s.Handler()
		nd.sw.h.Store(&h)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.s.Close()
		}
	})
	return nodes
}

// fleetSimulations sums actual experiment executions across nodes.
func fleetSimulations(nodes []*testNode) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.s.Stats().Simulations
	}
	return n
}

// submitJSON posts a spec and decodes the submit response.
func submitJSON(t *testing.T, baseURL, spec string) (*http.Response, jobStatus) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, js
}

// waitDoneHTTP polls a job's status endpoint until state=done.
func waitDoneHTTP(t *testing.T, baseURL, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, b := getBody(t, baseURL+"/v1/jobs/"+id)
		var js jobStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(b, &js); err == nil {
				switch js.State {
				case "done":
					return
				case "failed", "canceled":
					t.Fatalf("job %s reached %s: %s", id, js.State, js.Error)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached done", id)
}

// TestClusterAnyNodeServesByteIdentical is the headline acceptance
// scenario: a spec submitted to any of the three nodes returns the
// byte-identical report, hash-verified, regardless of which node owns
// the key — with exactly one simulation across the fleet.
func TestClusterAnyNodeServesByteIdentical(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	spec := `{"experiment":"stub","quick":true,"seed":42}`

	var reports [][]byte
	var shas []string
	for _, nd := range nodes {
		resp, js := submitJSON(t, nd.ts.URL, spec)
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit via %s: status %d", nd.id, resp.StatusCode)
		}
		waitDoneHTTP(t, nd.ts.URL, js.ID)
		rr, b := getBody(t, nd.ts.URL+"/v1/jobs/"+js.ID+"/report")
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("report via %s: status %d: %s", nd.id, rr.StatusCode, b)
		}
		if sha := rr.Header.Get("X-Report-Sha256"); sha != "" {
			if got := metrics.Sum256Hex(b); got != sha {
				t.Fatalf("report via %s: sha %s, header claims %s", nd.id, got, sha)
			}
			shas = append(shas, sha)
		}
		reports = append(reports, b)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("report via %s differs from report via %s", nodes[i].id, nodes[0].id)
		}
	}
	for i := 1; i < len(shas); i++ {
		if shas[i] != shas[0] {
			t.Fatalf("sha disagreement across nodes: %v", shas)
		}
	}
	if n := fleetSimulations(nodes); n != 1 {
		t.Fatalf("fleet ran %d simulations, want exactly 1", n)
	}
}

// TestClusterReadyzMembership is the readyz satellite: the body
// reports node identity and the fleet view.
func TestClusterReadyzMembership(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	// Let one heartbeat round complete so peers have been seen.
	time.Sleep(100 * time.Millisecond)
	resp, b := getBody(t, nodes[0].ts.URL+"/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: status %d: %s", resp.StatusCode, b)
	}
	var body struct {
		Cluster *struct {
			NodeID   string         `json:"node_id"`
			RingSize int            `json:"ring_size"`
			Alive    int            `json:"peers_alive"`
			Suspect  int            `json:"peers_suspect"`
			Dead     int            `json:"peers_dead"`
			Peers    []cluster.Peer `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatalf("decoding readyz: %v\n%s", err, b)
	}
	if body.Cluster == nil {
		t.Fatalf("readyz body has no cluster block: %s", b)
	}
	c := body.Cluster
	if c.NodeID != "n1" || c.RingSize != 3 || c.Alive != 2 || c.Dead != 0 {
		t.Fatalf("readyz cluster = %+v, want node n1, ring 3, 2 alive", c)
	}
	if len(c.Peers) != 2 {
		t.Fatalf("readyz lists %d peers, want 2", len(c.Peers))
	}
}

// TestClusterCrossNodeCoalesce: identical specs submitted
// concurrently to two *different* nodes must coalesce onto one
// execution on the ring owner — the cluster-wide version of the
// single-node coalescing guarantee.
func TestClusterCrossNodeCoalesce(t *testing.T) {
	gate := make(chan struct{})
	nodes := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.Registry = stubRegistry(gate) // every node's runs block on the gate
	})
	spec := `{"experiment":"stub","quick":true,"seed":7}`

	// Submit from two distinct nodes at once. The gate holds the
	// owner's run in flight so the second submission finds a live job
	// to coalesce onto rather than a finished cache entry.
	type result struct {
		id   string
		code int
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for _, nd := range []*testNode{nodes[0], nodes[1]} {
		wg.Add(1)
		go func(nd *testNode) {
			defer wg.Done()
			resp, js := submitJSON(t, nd.ts.URL, spec)
			results <- result{id: js.ID, code: resp.StatusCode}
		}(nd)
	}
	wg.Wait()
	close(results)
	var ids []string
	for r := range results {
		if r.code != http.StatusCreated && r.code != http.StatusOK {
			t.Fatalf("submit status %d", r.code)
		}
		ids = append(ids, r.id)
	}
	if ids[0] != ids[1] {
		t.Fatalf("submissions landed on different jobs: %s vs %s — did not coalesce", ids[0], ids[1])
	}
	close(gate)
	waitDoneHTTP(t, nodes[0].ts.URL, ids[0])
	if n := fleetSimulations(nodes); n != 1 {
		t.Fatalf("fleet ran %d simulations for one coalesced spec, want 1", n)
	}
}

// TestClusterKillNodeSurvivors: after reports have been served (and
// therefore replicated by read-through peer fill), killing any one
// node leaves every previously served hash servable from the
// survivors, byte-identical, with zero new simulations.
func TestClusterKillNodeSurvivors(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)

	specs := make([]string, 5)
	for i := range specs {
		specs[i] = fmt.Sprintf(`{"experiment":"stub","quick":true,"seed":%d}`, 100+i)
	}
	reports := make([][]byte, len(specs))
	for i, spec := range specs {
		// Submit via a rotating node, then read the report through a
		// *different* node: the read-through tee caches the bytes on
		// the reader, so every report ends on ≥2 nodes before the kill.
		submitVia := nodes[i%3]
		readVia := nodes[(i+1)%3]
		_, js := submitJSON(t, submitVia.ts.URL, spec)
		waitDoneHTTP(t, submitVia.ts.URL, js.ID)
		rr, b := getBody(t, readVia.ts.URL+"/v1/jobs/"+js.ID+"/report")
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("pre-kill report read via %s: status %d: %s", readVia.id, rr.StatusCode, b)
		}
		reports[i] = b
	}
	if n := fleetSimulations(nodes); n != uint64(len(specs)) {
		t.Fatalf("fleet ran %d simulations for %d distinct specs", n, len(specs))
	}

	victim := nodes[2]
	victim.kill()
	survivors := []*testNode{nodes[0], nodes[1]}
	survivorSimsBefore := fleetSimulations(survivors)

	// Wait until both survivors have declared the victim dead and
	// shrunk their rings, so submissions stop routing to the corpse.
	waitFor(t, 5*time.Second, func() bool {
		for _, nd := range survivors {
			if nd.s.cluster.Ring().Size() != 2 {
				return false
			}
		}
		return true
	})

	// Every previously served spec must be servable from each
	// survivor, byte-identical to the pre-kill bytes.
	for i, spec := range specs {
		for _, nd := range survivors {
			resp, js := submitJSON(t, nd.ts.URL, spec)
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
				t.Fatalf("post-kill submit via %s: status %d", nd.id, resp.StatusCode)
			}
			waitDoneHTTP(t, nd.ts.URL, js.ID)
			rr, b := getBody(t, nd.ts.URL+"/v1/jobs/"+js.ID+"/report")
			if rr.StatusCode != http.StatusOK {
				t.Fatalf("post-kill report via %s: status %d: %s", nd.id, rr.StatusCode, b)
			}
			if !bytes.Equal(b, reports[i]) {
				t.Fatalf("post-kill report for spec %d via %s differs from pre-kill bytes", i, nd.id)
			}
		}
	}
	if after := fleetSimulations(survivors); after != survivorSimsBefore {
		t.Fatalf("survivors re-ran %d simulations; every hash should have served from cache or a peer",
			after-survivorSimsBefore)
	}
}

// TestTeeRefusesNonKeySpecHash: the read-side tee files a peer's
// report under the spec hash the peer's response names, so that hash
// is untrusted input. A peer answering with "../outside", "a/b" or no
// hash at all gets its (correctly summed) report relayed but never
// cached, and nothing is written outside the cache directory; a real
// hash is still teed.
func TestTeeRefusesNonKeySpecHash(t *testing.T) {
	report := []byte(`{"experiment":"stub","records":[]}` + "\n")
	valid := strings.Repeat("d", 64)
	hashes := map[string]string{"j000001": "../outside", "j000002": "a/b", "j000003": "", "j000004": valid}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hash, ok := hashes[strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/p."), "/report")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(specHashHeader, hash)
		w.Header().Set(experimentHeader, "stub")
		w.Header().Set("X-Report-Sha256", metrics.Sum256Hex(report))
		w.Write(report)
	}))
	defer peer.Close()
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	s := newStubServer(t, Config{CacheDir: dir, Cluster: &cluster.Config{
		NodeID: "n1", Peers: map[string]string{"p": peer.URL}, HeartbeatInterval: time.Hour,
	}}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	read := func(id string) {
		t.Helper()
		resp, b := getBody(t, ts.URL+"/v1/jobs/p."+id+"/report")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(b, report) {
			t.Fatalf("proxied report %s: status %d, body %q", id, resp.StatusCode, b)
		}
	}

	for _, id := range []string{"j000001", "j000002", "j000003"} {
		read(id)
	}
	if st := s.Stats(); st.Cache.Entries != 0 || st.Cluster.PeerFillOK != 0 {
		t.Fatalf("cache %+v, peer fills %d; want nothing teed", st.Cache, st.Cluster.PeerFillOK)
	}
	if names, _ := os.ReadDir(root); len(names) != 1 {
		t.Fatalf("files beside the cache dir: %v", names)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(matches) != 0 {
		t.Fatalf("cache dir holds %v", matches)
	}

	read("j000004")
	if st := s.Stats(); st.Cache.Entries != 1 || st.Cluster.PeerFillOK != 1 {
		t.Fatalf("cache %+v, peer fills %d; want the valid hash teed", st.Cache, st.Cluster.PeerFillOK)
	}
	if b, ok := s.Cache().Get(valid); !ok || !bytes.Equal(b, report) {
		t.Fatalf("teed entry = %q, %v", b, ok)
	}
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
