// Package cache models a multi-level set-associative cache hierarchy
// with LRU replacement. It serves two clients: the workload's data
// references (for the performance model's memory stalls) and the page
// walker's PTE fetches. Following the paper (§4.1.1), PTE fetches enter
// the hierarchy at the last-level cache — "the LLC is the highest cache
// level for page table entries" — so the walker is wired to the LLC
// level directly.
//
// The per-level state is laid out data-oriented rather than as a
// slice of line structs: each line's whole metadata is one uint64 word
// (tag and dirty bit in the low half, LRU recency in the high half) in
// a single lane blocked by set, so a probe is one load per way over
// adjacent memory and the miss path's victim scan rereads the words
// the probe just pulled into the host cache. This level sits on the simulator's per-reference hot path
// (every data reference and every PTE fetch of every TLB variant
// lands here), so its probe cost multiplies across millions of
// references.
//
// Building the lanes is also a fixed cost of every simulation job:
// each variant's 4 MB LLC alone is 65536 metadata words. An empty
// line is therefore the zero word, and a level takes its lane from a
// per-size pool (Release hands it back), so a job's levels reuse the
// lanes of the job before and pay only a clear.
package cache

import (
	"fmt"
	"sort"

	"colt/internal/arch"
	"colt/internal/pool"
)

// Level is anything that can service a physical-address access and
// report its latency in cycles.
type Level interface {
	// Access services a read or write of the line containing addr and
	// returns the total latency in cycles.
	Access(addr arch.PAddr, write bool) int
}

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency int
}

// Stats counts per-level activity. Accesses is derived at snapshot
// time (every access either hits or misses), keeping the hot probe
// path to a single counter update.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Line-metadata encoding. Each line is one uint64 word in the fused
// meta lane: the low half holds the line's tag plus one in its low 31
// bits and the dirty bit above them, the high half the LRU recency
// tick, with recency 0 reserved to mean "never filled", i.e. invalid —
// lines are only ever filled, never invalidated, so the encoding is
// stable. An empty line is the zero word: its stored tag 0 matches no
// real line (they store tag+1 ≥ 1), so a hit scan needs no separate
// valid check and a fresh lane is just a cleared one. Folding valid
// into recency and dirty into the tag removes every other lane: a
// probe is a single load and mask per way, a hit's recency update a
// single store, and the whole metadata footprint is 8 bytes per line —
// which is what matters when several variants' multi-megabyte LLCs
// thrash the host cache.
const (
	dirtyBit uint32 = 1 << 31
	tagMask  uint32 = dirtyBit - 1
	// maxTick is the renormalization threshold: when the 32-bit LRU
	// clock would reach it, ticks are compressed rank-preservingly so
	// exact-LRU ordering survives arbitrarily long runs.
	maxTick uint32 = ^uint32(0) - 1
)

// lanes pools metadata lanes by line count (the paper's levels have
// 512, 4096 and 65536 lines). New takes one, cleared; a pool miss, or a
// line count that is not a power of two, allocates. Because the empty
// line is the zero word, whether a lane came from the pool never
// changes what a level computes.
var lanes pool.Slices[uint64]

// Cache is one set-associative level backed by a lower Level. Line
// metadata lives in one fused lane, blocked by set: ways tag words
// followed by ways recency words, contiguous per set, so a probe's
// tag scan and the miss path's victim scan read adjacent memory.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint // log2(sets), precomputed off the probe path
	ways     int
	hitLat   int

	// meta holds, for each set s, the block meta[s*ways : (s+1)*ways]:
	// one tag|dirty|recency word per way, so a probe's tag scan, its
	// hit-path recency update, and the miss path's victim scan all
	// touch the same adjacent words. It comes from lanes; Release
	// returns it and nils it.
	meta []uint64

	next Level
	// Devirtualized next-level pointers: the common chain is
	// Cache→Cache→Cache→Memory, so the miss path can skip the
	// interface dispatch. next is kept as the fallback for custom
	// Level implementations.
	nextCache *Cache
	nextMem   *Memory

	tick  uint32
	stats Stats
}

// New builds a cache level on top of next. Size must be a multiple of
// ways × line size, and the set count must be a power of two.
func New(cfg Config, next Level) *Cache {
	if next == nil {
		panic("cache: nil next level")
	}
	linesTotal := cfg.SizeBytes / arch.CacheLineSize
	if linesTotal <= 0 || cfg.Ways <= 0 || linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", cfg.Name, cfg.SizeBytes, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uintLog2(sets),
		ways:     cfg.Ways,
		hitLat:   cfg.HitLatency,
		meta:     lanes.Get(linesTotal),
		next:     next,
	}
	switch n := next.(type) {
	case *Cache:
		c.nextCache = n
	case *Memory:
		c.nextMem = n
	}
	return c
}

// Release returns the level's metadata lane to the pool for the next
// level of its size. The level is unusable afterwards: its lane is
// gone, so a later Access panics (slicing the nil lane) instead of
// reading a lane another level now owns. Stats stays readable, and a
// second Release is a no-op.
func (c *Cache) Release() {
	if c.meta == nil {
		return
	}
	lanes.Put(c.meta)
	c.meta = nil
}

// Name returns the level's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Hits + s.Misses
	return s
}

// ResetStats zeroes the counters (e.g. after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// fill services a miss from the next level (devirtualized when the
// chain is the standard Cache/Memory stack).
func (c *Cache) fill(addr arch.PAddr, write bool) int {
	if c.nextCache != nil {
		return c.nextCache.Access(addr, write)
	}
	if c.nextMem != nil {
		return c.nextMem.Access(addr, write)
	}
	return c.next.Access(addr, write)
}

// Access implements Level.
func (c *Cache) Access(addr arch.PAddr, write bool) int {
	if c.tick >= maxTick {
		c.renormalize()
	}
	c.tick++
	lineNo := addr.Line()
	set := int(lineNo) & (c.sets - 1)
	fullTag := lineNo >> c.setShift
	if fullTag >= uint64(tagMask) {
		panic(fmt.Sprintf("cache %s: physical address %#x exceeds the 31-bit tag field", c.cfg.Name, uint64(addr)))
	}
	tag := uint32(fullTag) + 1 // stored form: 0 is the empty line
	block := set * c.ways

	// Hit scan: one load and masked compare per way over the set's
	// contiguous metadata words (invalid lines hold the zero word,
	// whose stored tag no address produces); a hit folds its recency
	// update and dirty-bit set into a single store. Victim selection
	// is deferred to the miss path so hits pay nothing for it.
	lane := c.meta[block : block+c.ways]
	for j := range lane {
		if w := lane[j]; uint32(w)&tagMask == tag {
			c.stats.Hits++
			low := uint32(w)
			if write {
				low |= dirtyBit
			}
			lane[j] = uint64(low) | uint64(c.tick)<<32
			return c.hitLat
		}
	}
	return c.miss(addr, write, block, set, tag)
}

// miss services a demand miss: victim selection, next-level fill, and
// writeback accounting. Because an invalid line's recency half is 0
// and every filled line's is a positive tick, the old ordering —
// invalid ways first, then least-recently used, first-lowest wins —
// collapses to a plain first-minimum scan over the recency halves of
// the words the hit scan just loaded.
func (c *Cache) miss(addr arch.PAddr, write bool, block, set int, tag uint32) int {
	c.stats.Misses++
	lane := c.meta[block : block+c.ways]
	vi, min := 0, uint32(lane[0]>>32)
	if min != 0 {
		for j := 1; j < len(lane); j++ {
			if r := uint32(lane[j] >> 32); r < min {
				vi, min = j, r
			}
			// A never-filled way (recency 0) cannot be beaten — the
			// old ordering takes the first invalid way — so the scan
			// stops there.
			if min == 0 {
				break
			}
		}
	}

	lat := c.hitLat + c.fill(addr, false)
	if vt := uint32(lane[vi]); min != 0 {
		c.stats.Evictions++
		if vt&dirtyBit != 0 {
			c.stats.Writebacks++
			// Writebacks happen off the critical path; count but do not
			// add latency.
			wbAddr := arch.PAddr((uint64(vt&tagMask-1)<<c.setShift | uint64(set)) * arch.CacheLineSize)
			c.fill(wbAddr, true)
		}
	}
	low := tag
	if write {
		low |= dirtyBit
	}
	lane[vi] = uint64(low) | uint64(c.tick)<<32
	return lat
}

// renormalize compresses the LRU clock: every resident line's recency
// half is remapped to its rank among all resident lines (ranks start
// at 1; 0 keeps meaning invalid), and the tick restarts past the
// highest rank. Ticks are unique per access, so rank order equals
// tick order and exact-LRU victim selection is unchanged. Runs once
// per ~4 billion accesses; cost is a sort over the line count.
func (c *Cache) renormalize() {
	type rec struct {
		tick uint32
		idx  int
	}
	live := make([]rec, 0, c.sets*c.ways)
	for j := range c.meta {
		if t := uint32(c.meta[j] >> 32); t != 0 {
			live = append(live, rec{t, j})
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].tick < live[b].tick })
	for rank, r := range live {
		c.meta[r.idx] = uint64(uint32(c.meta[r.idx])) | uint64(rank+1)<<32
	}
	c.tick = uint32(len(live))
}

func uintLog2(n int) uint {
	var k uint
	for 1<<k < n {
		k++
	}
	return k
}

// Memory is the terminal Level with a flat access latency.
type Memory struct {
	Latency  int
	accesses uint64
}

// Access implements Level.
func (m *Memory) Access(arch.PAddr, bool) int {
	m.accesses++
	return m.Latency
}

// Accesses returns the number of memory accesses serviced.
func (m *Memory) Accesses() uint64 { return m.accesses }

// Hierarchy bundles the three-level configuration the paper simulates
// (32 KB L1 / 256 KB L2 / 4 MB LLC, Intel Core i7-like).
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *Memory
}

// The paper's level geometries (32 KB L1 / 256 KB L2 / 4 MB LLC,
// Intel Core i7-like), shared by DefaultHierarchy and NewFront so the
// split front/back wiring simulates the same machine.
func l1Config() Config  { return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4} }
func l2Config() Config  { return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12} }
func llcConfig() Config { return Config{Name: "LLC", SizeBytes: 4 << 20, Ways: 16, HitLatency: 30} }

// DefaultHierarchy builds the paper's cache configuration.
func DefaultHierarchy() *Hierarchy {
	mem := &Memory{Latency: 200}
	llc := New(llcConfig(), mem)
	l2 := New(l2Config(), llc)
	l1 := New(l1Config(), l2)
	return &Hierarchy{L1: l1, L2: l2, LLC: llc, Mem: mem}
}

// Release returns every level's metadata lane to the pool (see
// (*Cache).Release); the hierarchy is unusable afterwards.
func (h *Hierarchy) Release() {
	h.L1.Release()
	h.L2.Release()
	h.LLC.Release()
}

// DataAccess services a demand data reference from the core (enters at
// L1) and returns its latency.
func (h *Hierarchy) DataAccess(addr arch.PAddr, write bool) int {
	return h.L1.Access(addr, write)
}

// WalkAccess services a page-walker PTE fetch, which enters at the LLC
// (paper §4.1.1), and returns its latency.
func (h *Hierarchy) WalkAccess(addr arch.PAddr) int {
	return h.LLC.Access(addr, false)
}
