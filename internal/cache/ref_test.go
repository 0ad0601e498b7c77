package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"colt/internal/arch"
)

// refWay is one way of the reference cache model: explicit valid, tag,
// dirty and last-use fields, with no encoding shared with the fused
// tag and order lanes.
type refWay struct {
	valid, dirty bool
	tag          uint64
	lastUse      uint64
}

// refCache is a naive per-way model of an exact-LRU write-back cache:
// a lookup scans for the tag; on a miss, allocation takes the first
// invalid way or else the least recently used one, fetches the line
// from the next level, then writes a dirty victim back.
type refCache struct {
	sets [][]refWay
	now  uint64
	st   Stats
}

func newRefCache(sets, ways int) *refCache {
	m := &refCache{sets: make([][]refWay, sets)}
	for s := range m.sets {
		m.sets[s] = make([]refWay, ways)
	}
	return m
}

// access applies one access and returns whether it hit plus the
// requests it sends to the next level, in order.
func (m *refCache) access(addr arch.PAddr, write bool) (hit bool, next []request) {
	m.now++
	line := addr.Line()
	nsets := uint64(len(m.sets))
	set, tag := line%nsets, line/nsets
	ways := m.sets[set]
	for i := range ways {
		if w := &ways[i]; w.valid && w.tag == tag {
			w.lastUse = m.now
			w.dirty = w.dirty || write
			m.st.Hits++
			return true, nil
		}
	}
	m.st.Misses++
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range ways {
			if ways[i].lastUse < ways[victim].lastUse {
				victim = i
			}
		}
	}
	next = append(next, request{addr, false})
	if v := ways[victim]; v.valid {
		m.st.Evictions++
		if v.dirty {
			m.st.Writebacks++
			next = append(next, request{arch.PAddr((v.tag*nsets + set) * arch.CacheLineSize), true})
		}
	}
	ways[victim] = refWay{valid: true, dirty: write, tag: tag, lastUse: m.now}
	return false, next
}

type request struct {
	addr  arch.PAddr
	write bool
}

// recordingLevel is a next Level that records every request it gets.
type recordingLevel struct {
	reqs []request
}

func (r *recordingLevel) Access(addr arch.PAddr, write bool) int {
	r.reqs = append(r.reqs, request{addr, write})
	return 100
}

// maxLegalTag is the largest tag a line can hold: Access refuses any
// tag of 2^31-1 or more, because the lane stores tag+1 in 31 bits.
const maxLegalTag = uint64(tagMask) - 1

// refStream is a seeded access stream for a sets×ways level: writes at
// 30%, tags drawn from a small per-set alphabet so hits, conflict
// misses and dirty evictions all occur, and one access in eight at one
// of the four largest legal tags.
func refStream(seed int64, sets, ways, n int) []request {
	r := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		tag := uint64(r.Intn(3 * ways))
		if r.Intn(8) == 0 {
			tag = maxLegalTag - uint64(r.Intn(4))
		}
		line := tag*uint64(sets) + uint64(r.Intn(sets))
		off := arch.PAddr(r.Intn(arch.CacheLineSize))
		out[i] = request{arch.PAddr(line*arch.CacheLineSize) + off, r.Intn(10) < 3}
	}
	return out
}

// TestPropertyVsReferenceModel drives the fused-lane cache and the
// naive model over seeded streams of reads and writes and asserts
// identical behaviour access by access: hit or miss, latency, and the
// exact requests sent to the next level (the fill, then the victim's
// writeback and its address), plus the final statistics. Each geometry
// runs twice: on a fresh level, and on a level built after a dirtied
// level of the same size was released, so a reused lane must behave
// as a fresh one. The 12-way geometry's line count is not a power of
// two, so its lanes bypass the pools.
func TestPropertyVsReferenceModel(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{4, 2}, {8, 8}, {4, 16}, {64, 8}, {32, 16}, {4, 12},
	} {
		size := g.sets * g.ways * arch.CacheLineSize
		cfg := Config{Name: "ref", SizeBytes: size, Ways: g.ways, HitLatency: 3}
		stream := refStream(int64(size+g.ways), g.sets, g.ways, 40000)
		for _, reused := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dx%d/reused=%v", g.sets, g.ways, reused), func(t *testing.T) {
				var dirtied *uint32
				if reused {
					dirty := New(cfg, &Memory{Latency: 1})
					for _, rq := range refStream(99, g.sets, g.ways, 4*g.sets*g.ways) {
						dirty.Access(rq.addr, true)
					}
					dirtied = &dirty.tags[0]
					dirty.Release()
				}
				rec := &recordingLevel{}
				c := New(cfg, rec)
				if reused && &c.tags[0] != dirtied {
					// 48-line lanes are not pooled, and under -race
					// the pool drops items at random.
					t.Log("this run took a fresh lane, not the dirtied one")
				}
				m := newRefCache(g.sets, g.ways)
				for i, rq := range stream {
					rec.reqs = rec.reqs[:0]
					lat := c.Access(rq.addr, rq.write)
					hit, want := m.access(rq.addr, rq.write)
					wantLat := 3
					if !hit {
						wantLat += 100
					}
					if lat != wantLat || !slices.Equal(rec.reqs, want) {
						t.Fatalf("access %d %+v: latency %d, next-level requests %+v; model %d, %+v",
							i, rq, lat, rec.reqs, wantLat, want)
					}
				}
				if st, want := c.Stats(), m.st; st.Hits != want.Hits || st.Misses != want.Misses ||
					st.Evictions != want.Evictions || st.Writebacks != want.Writebacks {
					t.Fatalf("stats %+v, model %+v", st, want)
				}
				if m.st.Writebacks == 0 || m.st.Hits == 0 {
					t.Fatalf("stream exercised too little: %+v", m.st)
				}
				c.Release()
			})
		}
	}
}

// TestTagFieldLimit pins the 31-bit guard at its edge: the largest
// legal tag fills, hits and writes back to its own address, and the
// next tag panics.
func TestTagFieldLimit(t *testing.T) {
	const sets, ways = 4, 2
	rec := &recordingLevel{}
	c := New(Config{Name: "edge", SizeBytes: sets * ways * arch.CacheLineSize, Ways: ways, HitLatency: 1}, rec)
	top := arch.PAddr((maxLegalTag*sets + 3) * arch.CacheLineSize)
	c.Access(top, true)
	if lat := c.Access(top, false); lat != 1 {
		t.Fatalf("largest legal tag did not hit: latency %d", lat)
	}
	// Two other lines of set 3 evict it.
	c.Access(3*arch.CacheLineSize, false)
	c.Access((sets+3)*arch.CacheLineSize, false)
	if want := (request{top, true}); !slices.Contains(rec.reqs, want) {
		t.Fatalf("no writeback %+v among %+v", want, rec.reqs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a tag past the 31-bit field did not panic")
		}
	}()
	c.Access(arch.PAddr(((maxLegalTag+1)*sets+3)*arch.CacheLineSize), false)
}

func TestReleasedLevelPanics(t *testing.T) {
	c := tiny(&Memory{Latency: 10})
	c.Access(0, true)
	c.Release()
	c.Release() // a second release must not pool the lane twice
	if c.Stats().Misses != 1 {
		t.Fatalf("stats after release: %+v", c.Stats())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Access on a released level did not panic")
		}
	}()
	c.Access(0, false)
}

// hierarchyDigest builds the paper's front with one attached
// hierarchy, drives a seeded stream of data accesses through the front
// plus page-walker fetches that fork the shared LLC's sets, releases
// both, and returns every level's statistics and the summed latency.
func hierarchyDigest(seed int64) [6]Stats {
	r := rand.New(rand.NewSource(seed))
	front, h := NewFront(), DefaultHierarchy()
	front.Attach(h)
	lats := make([]int, 1)
	var total uint64
	for i := 0; i < 30000; i++ {
		addr := arch.PAddr(r.Int63n(64 << 20))
		if r.Intn(16) == 0 {
			total += uint64(h.WalkAccess(addr &^ 7))
			continue
		}
		front.Access(addr, r.Intn(4) == 0, lats)
		total += uint64(lats[0])
	}
	d := [6]Stats{front.L1.Stats(), front.L2.Stats(), front.llc.Stats(), h.LLC.Stats(), {Accesses: total}, {Accesses: h.Mem.Accesses()}}
	front.Release()
	h.Release()
	return d
}

// TestConcurrentLaneReuse runs many hierarchies at once, each taking
// lanes that other goroutines just released, and requires every one to
// reproduce the single-threaded result exactly. Under -race the pool
// also drops items at random, mixing fresh and reused lanes.
func TestConcurrentLaneReuse(t *testing.T) {
	const seed, goroutines = 5, 4
	want := hierarchyDigest(seed)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines) // at most one send each
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := hierarchyDigest(seed); got != want {
					errs <- fmt.Sprintf("digest %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
