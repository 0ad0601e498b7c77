package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"
)

// fuzzPeers is the fixed fleet both fuzz targets run against: self
// "a" plus two configured peers.
var fuzzPeers = map[string]string{"b": "http://b.invalid", "c": "http://c.invalid"}

// FuzzHeartbeat feeds arbitrary heartbeat bodies through the decode
// the server's heartbeat handler applies (JSON under a 64 KiB
// http.MaxBytesReader) into HandleHeartbeat, from a membership in
// which the fuzzer picks the peers already walked to dead (bit 0: b,
// bit 1: c). A beat must never panic, the ring must hold self and
// nothing but configured peers, and the epoch may move only when the
// ring's membership does. The seed corpus in
// testdata/fuzz/FuzzHeartbeat holds each membership transition (a
// dead peer rejoining, a peer starting to drain), beats from self and
// from strangers, and malformed bodies.
func FuzzHeartbeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, dead uint8) {
		cl, err := New(Config{NodeID: "a", Peers: fuzzPeers}, &stubHost{})
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range []string{"b", "c"} {
			for k := 0; dead&(1<<i) != 0 && k < cl.cfg.DeadAfter; k++ {
				cl.mem.Miss(id, cl.cfg.SuspectAfter, cl.cfg.DeadAfter)
			}
		}
		cl.rebuildRing("fuzz setup")
		var hb Heartbeat
		if err := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 1<<16)).Decode(&hb); err != nil {
			return
		}
		before, epoch := cl.Ring().Nodes(), cl.Epoch()
		if reply := cl.HandleHeartbeat(hb); reply.From != "a" {
			t.Fatalf("reply from %q, want self", reply.From)
		}
		after := cl.Ring().Nodes()
		if !slices.Contains(after, "a") {
			t.Fatalf("ring %v lost self", after)
		}
		for _, n := range after {
			if _, ok := fuzzPeers[n]; !ok && n != "a" {
				t.Fatalf("ring %v holds %q, not a configured member", after, n)
			}
		}
		if moved, changed := cl.Epoch() != epoch, !slices.Equal(before, after); moved != changed {
			t.Fatalf("epoch moved %v while membership changed %v (%v → %v)", moved, changed, before, after)
		}
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzFetchReport answers every peer-fill GET with an arbitrary body
// and claimed X-Report-Sha256 (the body's true sum when honest is
// set), through a fake transport on the cluster's HTTP client.
// FetchReport must return bytes only when their SHA-256 equals the
// claimed sum, and must count every other response corrupt. The seed
// corpus in testdata/fuzz/FuzzFetchReport holds honest fills, a
// missing claim, and claims that are near misses of the true sum.
func FuzzFetchReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, claimed string, honest bool) {
		sum := sha256.Sum256(body)
		if honest {
			claimed = hex.EncodeToString(sum[:])
		}
		cl, err := New(Config{NodeID: "a", Peers: fuzzPeers}, &stubHost{})
		if err != nil {
			t.Fatal(err)
		}
		cl.HTTPClient().Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			h := http.Header{}
			h.Set(ReportShaHeader, claimed)
			return &http.Response{StatusCode: http.StatusOK, Header: h,
				Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
		})
		b, sha, from, err := cl.FetchReport(context.Background(), "deadbeef")
		ok, corrupt := cl.Counters.PeerFillOK.Load(), cl.Counters.PeerFillCorrupt.Load()
		if claimed != hex.EncodeToString(sum[:]) {
			if err == nil || b != nil {
				t.Fatalf("served %d bytes claimed as %q from %s", len(b), claimed, from)
			}
			if ok != 0 || corrupt != uint64(len(fuzzPeers)) {
				t.Fatalf("ok %d, corrupt %d; want 0 and one per peer (%d)", ok, corrupt, len(fuzzPeers))
			}
			return
		}
		if err != nil || !bytes.Equal(b, body) || sha != claimed {
			t.Fatalf("verified fill refused: %v (sha %q)", err, sha)
		}
		if _, ok := fuzzPeers[from]; !ok {
			t.Fatalf("filled from %q, not a configured peer", from)
		}
		if ok != 1 || corrupt != 0 {
			t.Fatalf("ok %d, corrupt %d; want 1 and 0", ok, corrupt)
		}
	})
}
