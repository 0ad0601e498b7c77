package cluster

import (
	"sort"
	"sync"
	"time"
)

// PeerState is a peer's position in the failure-detection lifecycle.
// Heartbeat successes pin a peer at alive; consecutive misses walk it
// alive → suspect → dead. Suspect peers stay in the ring (a missed
// beat or two is usually a GC pause or a drop, and remapping their
// keys would churn ownership for nothing); dead peers are removed,
// which is what re-owns their ring range.
type PeerState string

const (
	PeerAlive   PeerState = "alive"
	PeerSuspect PeerState = "suspect"
	PeerDead    PeerState = "dead"
)

// Peer is one remote member's tracked state, as the heartbeat loop
// last observed it.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// State is the failure-detector verdict; Misses the consecutive
	// failed heartbeats behind it.
	State  PeerState `json:"state"`
	Misses int       `json:"misses"`
	// QueueLen, Epoch, and Draining are gossip from the peer's last
	// successful heartbeat: its queue depth (shown on readyz), its
	// ring epoch (operator agreement check), and whether it is
	// shutting down (drained peers stop owning new work).
	QueueLen int    `json:"queue_len"`
	Epoch    uint64 `json:"epoch"`
	Draining bool   `json:"draining"`
	// LastSeen is the wall-clock time of the last successful beat
	// (zero before the first).
	LastSeen time.Time `json:"last_seen,omitempty"`
}

// inRing reports whether this peer should own ring range: non-dead
// and not draining.
func (p Peer) inRing() bool { return p.State != PeerDead && !p.Draining }

// Membership tracks the static peer list's live state. It is a
// passive record — the Cluster's heartbeat loop feeds it Note/Miss
// observations — so its transitions are unit-testable without a
// network.
type Membership struct {
	self string

	mu    sync.Mutex
	peers map[string]*Peer
}

// NewMembership builds the tracker for self plus the id→URL peer
// map. Peers start alive: a booting fleet should not refuse routing
// until the first heartbeat round completes, and a genuinely absent
// peer walks to dead within DeadAfter beats anyway.
func NewMembership(self string, peers map[string]string) *Membership {
	m := &Membership{self: self, peers: make(map[string]*Peer, len(peers))}
	for id, url := range peers {
		if id == self {
			continue
		}
		m.peers[id] = &Peer{ID: id, URL: url, State: PeerAlive}
	}
	return m
}

// Note records a successful heartbeat from peer id carrying hb. The
// returned ringChanged reports whether the peer's ring eligibility
// flipped (dead→alive resurrection, or a draining transition) — the
// caller rebuilds the ring exactly then.
func (m *Membership) Note(id string, hb Heartbeat, now time.Time) (ringChanged bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return false
	}
	was := p.inRing()
	p.State = PeerAlive
	p.Misses = 0
	p.QueueLen = hb.QueueLen
	p.Epoch = hb.Epoch
	p.Draining = hb.Draining
	p.LastSeen = now
	return p.inRing() != was
}

// Miss records a failed heartbeat to peer id, walking it toward dead
// under the suspectAfter/deadAfter thresholds (consecutive misses).
// ringChanged reports a crossing of the dead boundary.
func (m *Membership) Miss(id string, suspectAfter, deadAfter int) (ringChanged bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return false
	}
	was := p.inRing()
	p.Misses++
	switch {
	case p.Misses >= deadAfter:
		p.State = PeerDead
	case p.Misses >= suspectAfter:
		p.State = PeerSuspect
	}
	return p.inRing() != was
}

// RingMembers returns the node set the ring should be built from:
// self plus every non-dead, non-draining peer, sorted.
func (m *Membership) RingMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self}
	for _, p := range m.peers {
		if p.inRing() {
			out = append(out, p.ID)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot copies every peer's state, sorted by ID, for readyz and
// stats bodies.
func (m *Membership) Snapshot() []Peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Peer, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Peer returns one peer's state copy.
func (m *Membership) Peer(id string) (Peer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[id]
	if !ok {
		return Peer{}, false
	}
	return *p, true
}

// Counts tallies peers by state (self excluded).
func (m *Membership) Counts() (alive, suspect, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		switch p.State {
		case PeerAlive:
			alive++
		case PeerSuspect:
			suspect++
		default:
			dead++
		}
	}
	return
}
