package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// numShards is the admission/registry shard count. Spec hashes and
// job sequence numbers spread across it so concurrent submissions of
// different specs never contend on one lock; a power of two keeps the
// modulo cheap.
const numShards = 16

// admitShard is one slice of the coalescing map: queued/running jobs
// keyed by spec content hash. A submission takes exactly its spec's
// shard lock through the whole admission decision (coalesce check,
// cache probe, queue reservation), so identical concurrent specs
// serialize with each other — the coalescing guarantee — while
// distinct specs proceed in parallel.
type admitShard struct {
	mu     sync.Mutex
	byHash map[string]*Job
	_      [40]byte // pad to keep neighboring shard locks off one cache line
}

// regShard is one slice of the job registry: tracked jobs keyed by
// ID, their admission order (for bounded eviction and listing), and
// the per-state counters Stats() reconciles without locks.
type regShard struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // admission-ordered IDs still tracked here
	counts stateCounters
	_      [40]byte
}

// admitShardFor picks the admission shard for a spec content hash.
func (s *Server) admitShardFor(hash string) *admitShard {
	h := fnv.New32a()
	h.Write([]byte(hash))
	return &s.admit[h.Sum32()%numShards]
}

// regShardForSeq picks the registry shard for an admission sequence
// number. Sequential IDs round-robin the shards, so retention bounds
// and listing work spread evenly.
func (s *Server) regShardForSeq(seq uint64) *regShard {
	return &s.reg[seq%numShards]
}

// regShardForID recovers the registry shard from a job ID ("j%06d",
// or "<node>.j%06d" in cluster mode). Malformed IDs — including IDs
// carrying another node's prefix, whose reads the HTTP layer proxies
// to their home node — report false.
func (s *Server) regShardForID(id string) (*regShard, bool) {
	if s.idPrefix != "" {
		rest, ok := strings.CutPrefix(id, s.idPrefix)
		if !ok {
			return nil, false
		}
		id = rest
	}
	if len(id) < 2 || id[0] != 'j' {
		return nil, false
	}
	seq, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return nil, false
	}
	return s.regShardForSeq(seq), true
}

// newTrackedJob mints the next job ID and registers the job in its
// registry shard, applying the terminal-retention bound. The ID is
// minted here — after admission has succeeded — so refused
// submissions never consume one. A cache hit passes the report
// admission read: the job is born done and keeps the report for its
// first fetch (budget permitting) before any other goroutine can
// reach it, so an eviction never misses what it holds.
func (s *Server) newTrackedJob(can CanonicalJob, now time.Time, trace string, hit *keptReport) *Job {
	seq := s.nextID.Add(1)
	j := newJob(s.idPrefix+fmt.Sprintf("j%06d", seq), can, now)
	j.seq = seq
	j.traceID = trace
	j.om = s.om // before any terminal transition can fire
	if hit != nil {
		j.markCachedDone(now)
		s.keepReport(j, hit)
	}
	rs := s.regShardForSeq(seq)
	j.counts = &rs.counts
	rs.mu.Lock()
	rs.jobs[j.ID] = j
	rs.order = append(rs.order, j.ID)
	rs.counts.add(j.stateFast())
	s.evictTerminalLocked(rs)
	rs.mu.Unlock()
	return j
}

// evictTerminalLocked enforces the per-shard terminal-retention bound
// (Config.RetainJobs / numShards): oldest terminal jobs are dropped
// first, queued/running jobs are never touched, and an evicted job's
// kept report is released. Callers hold rs.mu.
// The scan walks admission order from the front and stops as soon as
// the excess is cleared; because old jobs are overwhelmingly terminal
// the amortized cost per admission is O(1).
func (s *Server) evictTerminalLocked(rs *regShard) {
	excess := int(rs.counts.terminalTotal()) - s.retainPerShard
	if excess <= 0 {
		return
	}
	var keptPrefix []string // non-terminal survivors older than the cut
	i := 0
	for ; i < len(rs.order) && excess > 0; i++ {
		id := rs.order[i]
		j, ok := rs.jobs[id]
		if !ok {
			continue
		}
		if st := j.stateFast(); st.terminal() {
			delete(rs.jobs, id)
			rs.counts.sub(st)
			s.takeKept(j)
			excess--
		} else {
			keptPrefix = append(keptPrefix, id)
		}
	}
	rs.order = append(keptPrefix, rs.order[i:]...)
}

// lookupJob finds a tracked job by ID across the registry shards.
func (s *Server) lookupJob(id string) (*Job, bool) {
	rs, ok := s.regShardForID(id)
	if !ok {
		return nil, false
	}
	rs.mu.Lock()
	j, ok := rs.jobs[id]
	rs.mu.Unlock()
	return j, ok
}

// listJobs snapshots every tracked job in admission order.
func (s *Server) listJobs() []*Job {
	var out []*Job
	for i := range s.reg {
		rs := &s.reg[i]
		rs.mu.Lock()
		for _, id := range rs.order {
			if j, ok := rs.jobs[id]; ok {
				out = append(out, j)
			}
		}
		rs.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// trackedJobs counts tracked jobs per state by summing the per-shard
// atomic counters — no shard lock, no per-job lock.
func (s *Server) trackedJobs() map[JobState]int {
	out := make(map[JobState]int)
	for i := range s.reg {
		for idx, st := range jobStates {
			if n := s.reg[i].counts.n[idx].Load(); n > 0 {
				out[st] += int(n)
			}
		}
	}
	return out
}
