package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"time"

	"colt/internal/cluster"
	"colt/internal/metrics"
)

// Cross-node request headers.
const (
	// forwardedHeader marks a request already routed once by a peer,
	// capping submit/read forwarding at one hop: the receiving node
	// always handles it locally, even if its ring momentarily
	// disagrees about ownership.
	forwardedHeader = "X-Colt-Forwarded"
	// specHashHeader / experimentHeader ride on report responses so a
	// proxying peer can file the verified bytes under the right cache
	// key without a second round trip.
	specHashHeader   = "X-Colt-Spec-Hash"
	experimentHeader = "X-Colt-Experiment"
)

// ---- cluster.Host implementation ----------------------------------

// QueueLen implements cluster.Host: current run-queue depth, the
// number heartbeats gossip and readyz shows per peer.
func (s *Server) QueueLen() int { return s.queue.len() }

// Draining implements cluster.Host.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---- submit-side routing: peer fill and ownership proxy -----------

// peerFill tries to satisfy a locally-missing hash from the fleet
// before admission queues a recompute. Bytes are verified by the
// cluster layer (SHA-256 of the response against the peer's claim)
// before they reach the cache; a Put that the disk refuses rides the
// overlay like any local result.
func (s *Server) peerFill(can CanonicalJob, trace string) {
	if _, ok := s.cache.Entry(can.Hash); ok {
		return
	}
	b, _, from, err := s.cluster.FetchReport(s.baseCtx, can.Hash)
	if err != nil {
		return
	}
	if err := s.cache.Put(can.Hash, can.Exp.Name, b); err != nil {
		s.noteDiskOp(err)
		return
	}
	s.noteDiskOp(nil)
	s.slog.Info("peer cache fill", "trace", trace, "hash", can.Hash, "from", from, "bytes", len(b))
}

// maybeProxySubmit routes a submission to its ring owner. Returns
// true when the response has been written (the request was proxied).
// Local admission is kept when: this node owns the hash, a verified
// local copy already exists (serving beats a network hop), the spec
// fails canonicalization (the local path renders the 400), the node
// is draining (it must refuse, not route), or the owner is
// unreachable (availability beats placement — the job runs here and
// the owner's next heartbeat round will find out about the peer).
func (s *Server) maybeProxySubmit(w http.ResponseWriter, r *http.Request, spec Spec, trace string) bool {
	if s.draining.Load() {
		return false
	}
	can, err := Canonicalize(spec, s.cfg.Registry)
	if err != nil {
		return false
	}
	owner, self := s.cluster.Owner(can.Hash)
	if self {
		return false
	}
	if _, ok := s.cache.Entry(can.Hash); ok {
		return false
	}
	if s.proxySubmit(w, r, spec, trace, owner) {
		return true
	}
	s.cluster.Counters.ProxyFallbacks.Add(1)
	s.slog.Warn("submit proxy failed; admitting locally", "trace", trace,
		"hash", can.Hash, "owner", owner)
	return false
}

// proxySubmit forwards one submission to owner, preserving the trace
// ID, and relays the owner's response — including its job ID, whose
// node prefix routes every later read back to the owner.
func (s *Server) proxySubmit(w http.ResponseWriter, r *http.Request, spec Spec, trace, owner string) bool {
	base, ok := s.cluster.PeerURL(owner)
	if !ok {
		return false
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Colt-Trace", trace)
	req.Header.Set(forwardedHeader, s.cluster.NodeID())
	resp, err := s.cluster.HTTPClient().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	s.cluster.Counters.ProxiedSubmits.Add(1)
	for _, h := range []string{"Content-Type", "X-Colt-Trace", "Location", "Retry-After", "X-Report-Sha256"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Colt-Proxied-To", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, cluster.MaxBody))
	s.slog.Info("submit proxied", "trace", trace, "owner", owner, "status", resp.StatusCode)
	return true
}

// ---- read-side routing: remote job IDs ----------------------------

// proxyRemoteJob reverse-proxies a read of a job another node minted
// (recognizable by its "<node>." ID prefix) to that node. SSE tails
// stream through on a short flush interval; report responses are
// additionally teed into the local cache (read-side peer fill).
// Forwarding is capped at one hop.
func (s *Server) proxyRemoteJob(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.cluster == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	node, rest, ok := strings.Cut(id, ".")
	if !ok || node == s.cluster.NodeID() || len(rest) < 2 || rest[0] != 'j' {
		return false
	}
	base, ok := s.cluster.PeerURL(node)
	if !ok {
		return false
	}
	target, err := url.Parse(base)
	if err != nil {
		return false
	}
	rp := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.Out.Header.Set(forwardedHeader, s.cluster.NodeID())
		},
		FlushInterval:  50 * time.Millisecond,
		ModifyResponse: s.teeProxiedReport(r),
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, http.StatusBadGateway, "job %s lives on peer %s, which is unreachable: %v", id, node, err)
		},
	}
	rp.ServeHTTP(w, r)
	return true
}

// teeProxiedReport is the read-side peer fill: when a proxied
// response is a report, buffer it, verify the bytes against the
// origin's claimed SHA-256, and file a verified copy in the local
// cache under the spec hash the origin attached. The cache refuses a
// hash that is not a plain key (validKey), so the header can never
// name a path outside the cache directory. A mismatch is never
// relayed — the client gets a 502 and retries — and never cached.
// Non-report paths proxy untouched (nil ModifyResponse).
func (s *Server) teeProxiedReport(r *http.Request) func(*http.Response) error {
	if !strings.HasSuffix(r.URL.Path, "/report") {
		return nil
	}
	return func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return nil
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, cluster.MaxBody))
		resp.Body.Close()
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		resp.ContentLength = int64(len(b))
		hash := resp.Header.Get(specHashHeader)
		expName := resp.Header.Get(experimentHeader)
		claimed := resp.Header.Get("X-Report-Sha256")
		if hash == "" || expName == "" || claimed == "" {
			return nil // origin predates the fill headers; just proxy
		}
		if metrics.Sum256Hex(b) != claimed {
			s.cluster.Counters.PeerFillCorrupt.Add(1)
			return fmt.Errorf("proxied report failed verification (claimed %.12s)", claimed)
		}
		if _, ok := s.cache.Entry(hash); !ok {
			if err := s.cache.Put(hash, expName, b); err == nil {
				s.cluster.Counters.PeerFillOK.Add(1)
				s.slog.Info("peer cache fill (read-through)", "hash", hash, "bytes", len(b))
			}
		}
		return nil
	}
}

// ---- fleet-internal HTTP endpoints --------------------------------

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb cluster.Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&hb); err != nil {
		writeError(w, http.StatusBadRequest, "invalid heartbeat: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.HandleHeartbeat(hb))
}

// handleClusterReport serves raw report bytes by spec hash for peer
// fill. The cache read re-verifies the stored bytes before they leave
// this node, and the response carries the sum they verified against
// for the fetching side's own check — corruption cannot cross the
// wire unflagged in either direction.
func (s *Server) handleClusterReport(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	b, sum, ok := s.cache.GetSum(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached report for %q", hash)
		return
	}
	w.Header().Set(cluster.ReportShaHeader, sum)
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// ClusterStats is the Stats().Cluster block: ring/membership shape
// plus every cross-node counter, mirroring /metrics.
type ClusterStats struct {
	NodeID       string `json:"node_id"`
	Epoch        uint64 `json:"epoch"`
	RingSize     int    `json:"ring_size"`
	PeersAlive   int    `json:"peers_alive"`
	PeersSuspect int    `json:"peers_suspect"`
	PeersDead    int    `json:"peers_dead"`

	ProxiedSubmits  uint64 `json:"proxied_submits"`
	ProxyFallbacks  uint64 `json:"proxy_fallbacks,omitempty"`
	PeerFillOK      uint64 `json:"peer_fill_ok"`
	PeerFillMiss    uint64 `json:"peer_fill_miss"`
	PeerFillCorrupt uint64 `json:"peer_fill_corrupt,omitempty"`
	RingRebuilds    uint64 `json:"ring_rebuilds"`
}

// clusterStats assembles the Stats block (nil when unclustered).
func (s *Server) clusterStats() *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	alive, suspect, dead := s.cluster.Counts()
	c := &s.cluster.Counters
	return &ClusterStats{
		NodeID:          s.cluster.NodeID(),
		Epoch:           s.cluster.Epoch(),
		RingSize:        s.cluster.Ring().Size(),
		PeersAlive:      alive,
		PeersSuspect:    suspect,
		PeersDead:       dead,
		ProxiedSubmits:  c.ProxiedSubmits.Load(),
		ProxyFallbacks:  c.ProxyFallbacks.Load(),
		PeerFillOK:      c.PeerFillOK.Load(),
		PeerFillMiss:    c.PeerFillMiss.Load(),
		PeerFillCorrupt: c.PeerFillCorrupt.Load(),
		RingRebuilds:    c.RingRebuilds.Load(),
	}
}
