package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HTTP paths the fleet speaks to itself on. The server mounts
// handlers at these paths; the Cluster's clients call them. Keeping
// the constants here is what keeps the two sides from drifting.
const (
	HeartbeatPath = "/v1/cluster/heartbeat"
	ReportPath    = "/v1/cluster/report/" // + spec hash
)

// ReportShaHeader carries the SHA-256 of the report bytes on peer
// fill responses; the fetching side recomputes and compares before
// ever serving the bytes.
const ReportShaHeader = "X-Report-Sha256"

// MaxBody caps every cross-node body a node reads: peer fills here,
// proxied submissions and proxied reports in the server. Reports in
// this repo are a few hundred KB at worst; 16 MB is a generous
// ceiling that still stops a confused peer from streaming forever.
const MaxBody = 16 << 20

// Heartbeat is the gossip payload: each beat carries the sender's
// identity, ring epoch, queue depth, and drain state, and the
// response carries the receiver's. Queue depth is shown per peer on
// readyz; epoch is how operators spot ring disagreement.
type Heartbeat struct {
	From     string `json:"from"`
	Epoch    uint64 `json:"epoch"`
	QueueLen int    `json:"queue_len"`
	Draining bool   `json:"draining"`
}

// Host is what the cluster needs from the serving stack. The server
// implements it; keeping it this small is what keeps the dependency
// one-way and the heartbeat loop testable against a stub.
type Host interface {
	// QueueLen is the current depth of the local run queue.
	QueueLen() int
	// Draining reports whether the local node is shutting down.
	Draining() bool
}

// Config parameterizes one node's cluster layer.
type Config struct {
	// NodeID is this node's stable identity in the ring. Required.
	NodeID string
	// Peers maps node ID → base URL for every other member (a self
	// entry is ignored). Empty means single-node: no loop starts.
	Peers map[string]string
	// VNodes is virtual nodes per member; <=0 selects DefaultVNodes.
	VNodes int
	// HeartbeatInterval is the gossip period. <=0 selects 500ms.
	HeartbeatInterval time.Duration
	// SuspectAfter / DeadAfter are consecutive heartbeat misses
	// before a peer turns suspect / dead. <=0 select 2 and 4.
	SuspectAfter int
	DeadAfter    int
	// HTTPTimeout bounds every peer call. <=0 selects 5s.
	HTTPTimeout time.Duration
	// Logger receives membership transitions and ring rebuilds. nil
	// discards.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
}

// Counters are the cluster's observable event tallies. All fields
// are atomics so the server's metrics registry can read them with
// CounterFuncs; the server also bumps ProxiedSubmits itself when its
// HTTP layer forwards a submission.
type Counters struct {
	ProxiedSubmits  atomic.Uint64
	ProxyFallbacks  atomic.Uint64 // owner unreachable, admitted locally
	PeerFillOK      atomic.Uint64
	PeerFillMiss    atomic.Uint64
	PeerFillCorrupt atomic.Uint64
	HeartbeatOK     atomic.Uint64
	HeartbeatFail   atomic.Uint64
	RingRebuilds    atomic.Uint64
}

// Cluster is one node's view of the fleet: the membership tracker,
// the current ring, and the heartbeat loop.
type Cluster struct {
	cfg    Config
	host   Host
	mem    *Membership
	client *http.Client
	log    *slog.Logger

	ring  atomic.Pointer[Ring]
	epoch atomic.Uint64

	// Counters is exported for the server's metric funcs.
	Counters Counters

	ringMu sync.Mutex // serializes rebuilds, not reads

	stop    context.CancelFunc
	ctx     context.Context
	wg      sync.WaitGroup
	stopped sync.Once
}

// New builds the cluster layer. The ring initially contains self
// plus every configured peer (all presumed alive; absent peers walk
// to dead within DeadAfter beats). Call Start to begin heartbeating.
func New(cfg Config, host Host) (*Cluster, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	for id, url := range cfg.Peers {
		if id != cfg.NodeID && url == "" {
			return nil, fmt.Errorf("cluster: peer %q has empty URL", id)
		}
	}
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:    cfg,
		host:   host,
		mem:    NewMembership(cfg.NodeID, cfg.Peers),
		client: &http.Client{Timeout: cfg.HTTPTimeout},
		log:    cfg.Logger.With("node", cfg.NodeID),
		ctx:    ctx,
		stop:   cancel,
	}
	c.rebuildRing("boot")
	return c, nil
}

// NodeID returns this node's identity.
func (c *Cluster) NodeID() string { return c.cfg.NodeID }

// Epoch returns the local ring epoch (bumped on every rebuild).
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Ring returns the current ring snapshot (immutable).
func (c *Cluster) Ring() *Ring { return c.ring.Load() }

// Owner resolves key's owning node and whether that is self.
func (c *Cluster) Owner(key string) (node string, self bool) {
	node = c.Ring().Owner(key)
	return node, node == c.cfg.NodeID || node == ""
}

// PeerURL returns the configured base URL for a peer ID.
func (c *Cluster) PeerURL(id string) (string, bool) {
	p, ok := c.mem.Peer(id)
	if !ok {
		return "", false
	}
	return p.URL, true
}

// Members returns every peer's tracked state, sorted by ID.
func (c *Cluster) Members() []Peer { return c.mem.Snapshot() }

// HTTPClient returns the peer-call client (shared timeout policy).
// The server's submit/read proxies use it so every cross-node call
// in the fleet obeys one HTTPTimeout.
func (c *Cluster) HTTPClient() *http.Client { return c.client }

// Counts tallies peers by state.
func (c *Cluster) Counts() (alive, suspect, dead int) { return c.mem.Counts() }

// Start launches the heartbeat loop. A cluster with no peers is a
// no-op (single-node mode).
func (c *Cluster) Start() {
	if len(c.mem.Snapshot()) == 0 {
		return
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
}

// Stop halts the heartbeat loop and waits for it. Idempotent.
func (c *Cluster) Stop() {
	c.stopped.Do(func() {
		c.stop()
		c.wg.Wait()
	})
}

// rebuildRing recomputes the ring from the current membership and
// bumps the epoch. Serialized so concurrent Note/Miss transitions
// can't interleave a stale member set over a fresh one.
func (c *Cluster) rebuildRing(reason string) {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	members := c.mem.RingMembers()
	c.ring.Store(NewRing(members, c.cfg.VNodes))
	epoch := c.epoch.Add(1)
	c.Counters.RingRebuilds.Add(1)
	c.log.Info("cluster: ring rebuilt", "reason", reason, "epoch", epoch, "members", members)
}

// selfHeartbeat assembles the beat this node sends and answers with.
func (c *Cluster) selfHeartbeat() Heartbeat {
	return Heartbeat{
		From:     c.cfg.NodeID,
		Epoch:    c.epoch.Load(),
		QueueLen: c.host.QueueLen(),
		Draining: c.host.Draining(),
	}
}

// HandleHeartbeat processes an incoming beat and returns this node's
// own. An incoming beat is liveness evidence for the sender — that
// is what resurrects a dead-marked peer quickly after it restarts,
// without waiting for our next outbound round to it.
func (c *Cluster) HandleHeartbeat(hb Heartbeat) Heartbeat {
	if c.mem.Note(hb.From, hb, time.Now()) {
		c.rebuildRing("heartbeat from " + hb.From)
	}
	return c.selfHeartbeat()
}

// heartbeatLoop beats every peer each interval, feeding successes
// and failures into the membership tracker and rebuilding the ring
// when a peer crosses the dead boundary.
func (c *Cluster) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		for _, p := range c.mem.Snapshot() {
			hb, err := c.beat(p.URL)
			if err != nil {
				c.Counters.HeartbeatFail.Add(1)
				if c.mem.Miss(p.ID, c.cfg.SuspectAfter, c.cfg.DeadAfter) {
					c.log.Warn("cluster: peer dead", "peer", p.ID, "err", err)
					c.rebuildRing("peer dead: " + p.ID)
				}
				continue
			}
			c.Counters.HeartbeatOK.Add(1)
			if c.mem.Note(p.ID, hb, time.Now()) {
				c.log.Info("cluster: peer rejoined", "peer", p.ID)
				c.rebuildRing("peer rejoined: " + p.ID)
			}
		}
	}
}

// beat POSTs our heartbeat to one peer and decodes its reply.
func (c *Cluster) beat(baseURL string) (Heartbeat, error) {
	body, _ := json.Marshal(c.selfHeartbeat())
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, baseURL+HeartbeatPath, bytes.NewReader(body))
	if err != nil {
		return Heartbeat{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return Heartbeat{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Heartbeat{}, fmt.Errorf("heartbeat: %s", resp.Status)
	}
	var hb Heartbeat
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hb); err != nil {
		return Heartbeat{}, err
	}
	return hb, nil
}

// FetchReport tries to fill hash from peers, in ring-ownership
// order, skipping self and dead peers. Every response is re-hashed
// and compared to the peer's claimed SHA-256 before being returned;
// a mismatch counts as corrupt and the next peer is tried. Returns
// the verified bytes, their hex SHA, and the serving peer's ID.
func (c *Cluster) FetchReport(ctx context.Context, hash string) (report []byte, sha, from string, err error) {
	ring := c.Ring()
	for _, id := range ring.Owners(hash, ring.Size()) {
		if id == c.cfg.NodeID {
			continue
		}
		p, ok := c.mem.Peer(id)
		if !ok || p.State == PeerDead {
			continue
		}
		b, s, ferr := c.fetchFrom(ctx, p.URL, hash)
		if ferr != nil {
			continue
		}
		c.Counters.PeerFillOK.Add(1)
		return b, s, id, nil
	}
	c.Counters.PeerFillMiss.Add(1)
	return nil, "", "", fmt.Errorf("cluster: no peer holds %s", hash)
}

// fetchFrom pulls one report from one peer and verifies it.
func (c *Cluster) fetchFrom(ctx context.Context, baseURL, hash string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+ReportPath+hash, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("peer fill: %s", resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody))
	if err != nil {
		return nil, "", err
	}
	claimed := resp.Header.Get(ReportShaHeader)
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	if claimed == "" || got != claimed {
		c.Counters.PeerFillCorrupt.Add(1)
		return nil, "", fmt.Errorf("peer fill: sha mismatch (claimed %.12s, got %.12s)", claimed, got)
	}
	return b, got, nil
}
