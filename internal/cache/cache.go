// Package cache models a multi-level set-associative cache hierarchy
// with LRU replacement. It serves two clients: the workload's data
// references (for the performance model's memory stalls) and the page
// walker's PTE fetches. Following the paper (§4.1.1), PTE fetches enter
// the hierarchy at the last-level cache — "the LLC is the highest cache
// level for page table entries" — so the walker is wired to the LLC
// level directly.
//
// The per-level state is laid out data-oriented rather than as a
// slice of line structs: each line's tag and dirty bit are one uint32
// word in a tag lane blocked by set, so a probe is one load per way
// over adjacent memory, and each set's whole LRU order is one uint64
// word in an order lane. A hit moves its way to the top of that word
// and a miss takes the bottom way as its victim, so neither scans for
// recency, and no cache-wide clock exists. A set's state is therefore
// its ways' tag words plus its order word, which is what lets the
// shared front (front.go) copy one set from a shared LLC into each
// variant's LLC. This level sits on the simulator's per-reference hot
// path (every data reference and every PTE fetch of every TLB variant
// lands here), so its probe cost multiplies across millions of
// references.
//
// Building the lanes is also a fixed cost of every simulation job:
// a 4 MB LLC alone is 65536 tag words. An empty line is therefore the
// zero tag word and the fresh order the zero order word, and a level
// takes its lanes from per-size pools (Release hands them back), so a
// job's levels reuse the lanes of the job before and pay only a clear.
// A variant's LLC under the shared front (front.go) skips even the
// clear, because each of its sets is written whole before it is read.
package cache

import (
	"fmt"
	"math/bits"

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

// Line-state encoding.
//
// A tag word holds the line's tag plus one in its low 31 bits and the
// dirty bit above them. An empty line is the zero word: its stored tag
// 0 matches no real line (they store tag+1 ≥ 1), so a hit scan needs
// no separate valid check and a fresh lane is just a cleared one.
//
// A set's order word lists its ways by recency: nibble i is the way at
// rank i, rank 0 the least recently used and rank ways−1 the most
// recently used. The lane stores the word XOR the identity permutation
// (nibble i = i), so a cleared word is the fresh order 0, 1, …,
// ways−1. Lines are only ever filled, never invalidated, so ways that
// were never filled stay at the bottom of the order, lowest index
// first: a miss's victim, nibble 0, is the first never-filled way, or
// else the least recently used line — the exact-LRU policy a per-line
// clock scan computes.
const (
	dirtyBit uint32 = 1 << 31
	tagMask  uint32 = dirtyBit - 1

	// maxWays is the most ways a 64-bit order word can rank, at one
	// nibble each.
	maxWays = 16
	// nibbleOnes has a 1 in every nibble; j*nibbleOnes repeats way j
	// across the word, and the zero-nibble test finds j's rank.
	nibbleOnes uint64 = 0x1111111111111111
	nibbleHigh uint64 = 0x8888888888888888
)

// tagLanes and orderLanes pool the line and order lanes by length (the
// paper's levels have 512, 4096 and 65536 lines). New takes one of
// each, cleared; a pool miss, or a length that is not a power of two,
// allocates. Because the empty line is the zero tag word and the fresh
// order the zero order word, whether a lane came from the pool never
// changes what a level computes. A front's variant LLCs take theirs
// uncleared (see Front.NewVariant).
var (
	tagLanes   pool.Slices[uint32]
	orderLanes pool.Slices[uint64]
)

// Cache is one set-associative level backed by a lower Level.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint // log2(sets), precomputed off the probe path
	ways     int
	top      uint   // 4*(ways-1): the bit offset of the top rank's nibble
	ident    uint64 // the identity order, nibble i = i for i < ways
	hitLat   int

	// tags holds, for each set s, the block tags[s*ways : (s+1)*ways]:
	// one tag|dirty word per way, so a probe's tag scan touches
	// adjacent words. order holds one order word per set (see the
	// line-state encoding). Both come from the pools; Release returns
	// them and nils them.
	tags  []uint32
	order []uint64

	next Level
	// Devirtualized next-level pointers: the common chain is
	// Cache→Cache→Cache→Memory, so the miss path can skip the
	// interface dispatch. next is kept as the fallback for custom
	// Level implementations.
	nextCache *Cache
	nextMem   *Memory

	stats Stats
}

// New builds a cache level on top of next. Size must be a multiple of
// ways × line size, the set count must be a power of two, and a set
// has at most 16 ways.
func New(cfg Config, next Level) *Cache { return newCache(cfg, next, true) }

// newCache is New, with lanes that hold whatever their last level left
// unless cleared is set: the caller then writes each set's tag words
// and order word before any access reads them.
func newCache(cfg Config, next Level, cleared bool) *Cache {
	if next == nil {
		panic("cache: nil next level")
	}
	linesTotal := cfg.SizeBytes / arch.CacheLineSize
	if linesTotal <= 0 || cfg.Ways <= 0 || cfg.Ways > maxWays || linesTotal%cfg.Ways != 0 {
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
		top:      4 * uint(cfg.Ways-1),
		hitLat:   cfg.HitLatency,
		next:     next,
	}
	if cleared {
		c.tags, c.order = tagLanes.Get(linesTotal), orderLanes.Get(sets)
	} else {
		c.tags, c.order = tagLanes.GetUncleared(linesTotal), orderLanes.GetUncleared(sets)
	}
	for i := range cfg.Ways {
		c.ident |= uint64(i) << (4 * uint(i))
	}
	switch n := next.(type) {
	case *Cache:
		c.nextCache = n
	case *Memory:
		c.nextMem = n
	}
	return c
}

// Release returns the level's lanes to the pools for the next level of
// its size. The level is unusable afterwards: its lanes are gone, so a
// later Access panics (slicing the nil lane) instead of reading a lane
// another level now owns. Stats stays readable, and a second Release
// is a no-op, as is releasing a nil level.
func (c *Cache) Release() {
	if c == nil || c.tags == nil {
		return
	}
	tagLanes.Put(c.tags)
	orderLanes.Put(c.order)
	c.tags, c.order = nil, nil
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

// setOf returns the set the line containing addr maps to.
func (c *Cache) setOf(addr arch.PAddr) int {
	return int(addr.Line()) & (c.sets - 1)
}

// copySet overwrites set s with src's set s: its ways' tag words and
// its order word. src must have c's geometry.
func (c *Cache) copySet(src *Cache, s int) {
	block := s * c.ways
	copy(c.tags[block:block+c.ways], src.tags[block:block+c.ways])
	c.order[s] = src.order[s]
}

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
	lineNo := addr.Line()
	set := int(lineNo) & (c.sets - 1)
	fullTag := lineNo >> c.setShift
	if fullTag >= uint64(tagMask) {
		panic(fmt.Sprintf("cache %s: physical address %#x exceeds the 31-bit tag field", c.cfg.Name, uint64(addr)))
	}
	tag := uint32(fullTag) + 1 // stored form: 0 is the empty line
	block := set * c.ways

	// Hit scan: one load and masked compare per way over the set's
	// contiguous tag words (empty lines hold the zero word, whose
	// stored tag no address produces). Victim selection is deferred to
	// the miss path so hits pay nothing for it.
	lane := c.tags[block : block+c.ways]
	for j := range lane {
		if w := lane[j]; w&tagMask == tag {
			c.stats.Hits++
			if write {
				lane[j] = w | dirtyBit
			}
			c.touch(set, uint64(j))
			return c.hitLat
		}
	}
	return c.miss(addr, write, lane, set, tag)
}

// touch moves way j to the top of set s's order. The zero-nibble test
// on o ^ j*nibbleOnes flags the nibbles equal to j; borrows can only
// flag nibbles above a true zero, so the lowest flag is j's rank. The
// nibbles above that rank shift down one and j goes on top.
func (c *Cache) touch(s int, j uint64) {
	o := c.order[s] ^ c.ident
	if o>>c.top == j {
		return
	}
	x := o ^ j*nibbleOnes
	flags := (x - nibbleOnes) &^ x & nibbleHigh
	rank := uint(bits.TrailingZeros64(flags)) &^ 3 // bit offset of j's nibble
	below := o & (1<<rank - 1)
	o = below | o>>(rank+4)<<rank | j<<c.top
	c.order[s] = o ^ c.ident
}

// miss services a demand miss: the victim is the bottom of the set's
// order (see the line-state encoding), which rotates to the top, then
// the next-level fill and writeback accounting.
func (c *Cache) miss(addr arch.PAddr, write bool, lane []uint32, set int, tag uint32) int {
	c.stats.Misses++
	o := c.order[set] ^ c.ident
	vi := o & 0xf
	c.order[set] = (o>>4 | vi<<c.top) ^ c.ident

	lat := c.hitLat + c.fill(addr, false)
	if vt := lane[vi]; vt != 0 {
		c.stats.Evictions++
		if vt&dirtyBit != 0 {
			c.stats.Writebacks++
			// Writebacks happen off the critical path; count but do not
			// add latency.
			wbAddr := arch.PAddr((uint64(vt&tagMask-1)<<c.setShift | uint64(set)) * arch.CacheLineSize)
			c.fill(wbAddr, true)
		}
	}
	if write {
		tag |= dirtyBit
	}
	lane[vi] = tag
	return lat
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
// (32 KB L1 / 256 KB L2 / 4 MB LLC, Intel Core i7-like). A variant's
// hierarchy under a Front has only the LLC and its memory; the front
// runs L1 and L2 (see Front.NewVariant).
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
	Mem *Memory

	// front is the Front this hierarchy is a variant of, or nil.
	front *Front
}

// The paper's level geometries (32 KB L1 / 256 KB L2 / 4 MB LLC,
// Intel Core i7-like) and memory latency, shared by DefaultHierarchy
// and NewFront so the split front/back wiring simulates the same
// machine.
func l1Config() Config  { return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4} }
func l2Config() Config  { return Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12} }
func llcConfig() Config { return Config{Name: "LLC", SizeBytes: 4 << 20, Ways: 16, HitLatency: 30} }

const memLatency = 200

// DefaultHierarchy builds the paper's cache configuration.
func DefaultHierarchy() *Hierarchy {
	mem := &Memory{Latency: memLatency}
	llc := New(llcConfig(), mem)
	l2 := New(l2Config(), llc)
	l1 := New(l1Config(), l2)
	return &Hierarchy{L1: l1, L2: l2, LLC: llc, Mem: mem}
}

// Release returns every level's lanes to the pools (see
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
// (paper §4.1.1), and returns its latency. On a front's variant, the
// fetch first forks the set it lands in (see front.go).
func (h *Hierarchy) WalkAccess(addr arch.PAddr) int {
	if h.front != nil {
		h.front.fork(h.LLC.setOf(addr))
	}
	return h.LLC.Access(addr, false)
}
