package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubHost is a minimal Host: a settable queue depth and drain flag.
type stubHost struct {
	queue    atomic.Int64
	draining atomic.Bool
}

func (h *stubHost) QueueLen() int  { return int(h.queue.Load()) }
func (h *stubHost) Draining() bool { return h.draining.Load() }

// heartbeatMux mounts just the heartbeat endpoint for cl.
func heartbeatMux(cl *Cluster) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+HeartbeatPath, func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(cl.HandleHeartbeat(hb))
	})
	return mux
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHeartbeatDeathAndRejoin drives two clusters over real HTTP:
// killing one's listener walks it to dead on the other (shrinking
// the ring), and restoring it brings it back.
func TestHeartbeatDeathAndRejoin(t *testing.T) {
	hostA, hostB := &stubHost{}, &stubHost{}

	// B first, so A can be configured with B's URL.
	srvB := httptest.NewServer(nil) // handler set after clB exists
	defer srvB.Close()

	clA, err := New(Config{
		NodeID:            "a",
		Peers:             map[string]string{"b": srvB.URL},
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      2,
		DeadAfter:         4,
	}, hostA)
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(nil)
	defer srvA.Close()
	srvA.Config.Handler = heartbeatMux(clA)

	clB, err := New(Config{
		NodeID:            "b",
		Peers:             map[string]string{"a": srvA.URL},
		HeartbeatInterval: 10 * time.Millisecond,
	}, hostB)
	if err != nil {
		t.Fatal(err)
	}
	srvB.Config.Handler = heartbeatMux(clB)

	clA.Start()
	defer clA.Stop()

	hostB.queue.Store(5)
	waitFor(t, "a to see b's queue gossip", func() bool {
		p, ok := clA.mem.Peer("b")
		return ok && p.QueueLen == 5 && p.State == PeerAlive
	})
	if clA.Ring().Size() != 2 {
		t.Fatalf("ring size = %d, want 2", clA.Ring().Size())
	}

	// Kill b: its port stops answering, a should walk it to dead and
	// shrink the ring to itself.
	srvB.Close()
	waitFor(t, "a to declare b dead", func() bool {
		p, _ := clA.mem.Peer("b")
		return p.State == PeerDead
	})
	waitFor(t, "ring to shrink", func() bool { return clA.Ring().Size() == 1 })
	if owner, self := clA.Owner("anykey"); owner != "a" || !self {
		t.Fatalf("after b's death, Owner = %q self=%v, want a/true", owner, self)
	}

	// Resurrect b: an inbound heartbeat from b is liveness evidence
	// on its own — the path a restarted node actually takes before
	// a's next outbound round reaches it.
	if reply := clA.HandleHeartbeat(Heartbeat{From: "b", QueueLen: 1}); reply.From != "a" {
		t.Fatalf("heartbeat reply from %q, want a", reply.From)
	}
	waitFor(t, "ring to regrow", func() bool { return clA.Ring().Size() == 2 })
	p, _ := clA.mem.Peer("b")
	if p.State != PeerAlive {
		t.Fatalf("b state after inbound beat = %s, want alive", p.State)
	}
}

// TestFetchReportVerifiesSha: a peer serving bytes that do not match
// their claimed SHA is counted corrupt and skipped; a good peer
// later in ownership order satisfies the fill.
func TestFetchReportVerifiesSha(t *testing.T) {
	good := []byte(`{"ok":true}`)
	goodSum := sha256.Sum256(good)
	goodSha := hex.EncodeToString(goodSum[:])

	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ReportShaHeader, goodSha)
		w.Write([]byte(`{"ok":false,"tampered":true}`))
	}))
	defer corrupt.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(ReportShaHeader, goodSha)
		w.Write(good)
	}))
	defer healthy.Close()

	cl, err := New(Config{
		NodeID: "me",
		Peers:  map[string]string{"bad": corrupt.URL, "ok": healthy.URL},
	}, &stubHost{})
	if err != nil {
		t.Fatal(err)
	}

	// Try every hash until ownership order puts the corrupt peer
	// first, proving the skip-and-continue path; the loop always
	// verifies the returned bytes regardless of order.
	sawCorruptFirst := false
	for i := 0; i < 64 && !sawCorruptFirst; i++ {
		h := hex.EncodeToString([]byte{byte(i), 0xAA, 0xBB})
		ring := cl.Ring()
		order := ring.Owners(h, ring.Size())
		b, sha, from, err := cl.FetchReport(context.Background(), h)
		if err != nil {
			t.Fatalf("FetchReport(%s): %v (order %v)", h, err, order)
		}
		if string(b) != string(good) || sha != goodSha || from != "ok" {
			t.Fatalf("FetchReport returned %q from %s", b, from)
		}
		for _, o := range order {
			if o == "bad" {
				sawCorruptFirst = true
				break
			}
			if o == "ok" {
				break
			}
		}
	}
	if !sawCorruptFirst {
		t.Fatal("never exercised corrupt-peer-first ordering")
	}
	if cl.Counters.PeerFillCorrupt.Load() == 0 {
		t.Fatal("corrupt peer response was not counted")
	}
}

// TestFetchReportMiss: no peer has it.
func TestFetchReportMiss(t *testing.T) {
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer notFound.Close()
	cl, err := New(Config{NodeID: "me", Peers: map[string]string{"p": notFound.URL}}, &stubHost{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.FetchReport(context.Background(), "deadbeef"); err == nil {
		t.Fatal("want error when no peer holds the hash")
	}
	if cl.Counters.PeerFillMiss.Load() != 1 {
		t.Fatalf("PeerFillMiss = %d, want 1", cl.Counters.PeerFillMiss.Load())
	}
}
