// Package cluster turns N coltd processes into one fleet. Three
// pieces compose it:
//
//   - a consistent-hash Ring (virtual nodes, keyed on the spec
//     content hash the server already computes) that gives every spec
//     exactly one owner node, identically on every member, so any
//     node can route a submission without coordination;
//   - a Membership layer over a static peer list: a heartbeat loop
//     drives each peer through alive → suspect → dead, and the ring
//     is rebuilt from the non-dead set whenever a peer crosses the
//     dead boundary (each rebuild bumps the local epoch, which the
//     heartbeats gossip so operators can see agreement);
//   - hash-verified peer fill: FetchReport pulls a report by spec
//     hash from the peers in ring-ownership order and re-hashes the
//     bytes before returning them.
//
// The package is deliberately ignorant of the server's types:
// reports travel as verified bytes, and the server plugs in through
// the Host interface. That keeps the dependency one-way (server
// imports cluster) and the ring/membership logic unit-testable
// without a serving stack.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per member. 256 points per
// node keeps every member's key share within ±20% of uniform over
// the spec universe at small fleet sizes (64 was measurably not
// enough: one node of three drew 21% under its share), while the
// ring stays tiny — a 3-node fleet is 768 points, one binary search
// over ~12 KB.
const DefaultVNodes = 256

// ringPoint is one virtual node: a position on the 64-bit hash
// circle and the member that owns the arc ending there.
type ringPoint struct {
	pos  uint64
	node string
}

// Ring is an immutable consistent-hash ring. Build a new one on
// every membership change (they are cheap); never mutate in place.
// Construction is deterministic and order-independent: the same
// member set produces the identical ring on every node, which is
// what lets each node route independently yet agree.
type Ring struct {
	points []ringPoint
	nodes  []string // sorted member set
}

// hash64 maps a string to its position on the circle: the first 8
// bytes of its SHA-256, big-endian. SHA-256 rather than a fast
// non-cryptographic hash because ring keys are spec content hashes
// already — the marginal cost is nothing next to a network hop — and
// its avalanche behavior is what the balance guarantee leans on.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over nodes with vnodes virtual nodes each
// (vnodes <= 0 selects DefaultVNodes). Duplicate node IDs collapse;
// input order is irrelevant. An empty node set yields a ring whose
// Owner returns "".
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		points: make([]ringPoint, 0, len(uniq)*vnodes),
		nodes:  uniq,
	}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			// The "#" separator keeps ("n1", 2) and ("n12", ...) from
			// ever colliding on the same preimage.
			r.points = append(r.points, ringPoint{pos: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// A 64-bit collision between vnode points is vanishingly
		// unlikely, but the tiebreak keeps construction deterministic
		// even then.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's position, wrapping at the top. "" on an
// empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	pos := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owners returns up to n distinct members in ownership order for
// key: the owner first, then the successors a fill client should try
// next. n larger than the member count returns every member.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	pos := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for k := 0; k < len(r.points) && len(out) < n; k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Nodes returns the sorted member set the ring was built from.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Size is the member count.
func (r *Ring) Size() int { return len(r.nodes) }

// Contains reports membership of node.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}
