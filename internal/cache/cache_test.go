package cache

import (
	"testing"

	"colt/internal/arch"
)

func tiny(next Level) *Cache {
	// 4 sets × 2 ways × 64B = 512B.
	return New(Config{Name: "T", SizeBytes: 512, Ways: 2, HitLatency: 2}, next)
}

func TestMissThenHit(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	if lat := c.Access(0, false); lat != 102 {
		t.Fatalf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(16, false); lat != 2 { // same line
		t.Fatalf("hit latency = %d, want 2", lat)
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if mem.Accesses() != 1 {
		t.Fatalf("memory accesses = %d", mem.Accesses())
	}
}

func TestLRUEviction(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	// Three lines mapping to set 0 (stride = sets*64 = 256B).
	a, b, d := arch.PAddr(0), arch.PAddr(256), arch.PAddr(512)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent; b is LRU
	c.Access(d, false) // evicts b
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if lat := c.Access(a, false); lat != 2 {
		t.Fatal("a was evicted but should have been retained")
	}
	if lat := c.Access(b, false); lat == 2 {
		t.Fatal("b should have been evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	mem := &Memory{Latency: 100}
	c := tiny(mem)
	c.Access(0, true) // dirty
	c.Access(256, false)
	c.Access(512, false) // evicts dirty line 0
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
	// Clean eviction must not write back.
	c.Access(768, false)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("clean eviction wrote back: %d", c.Stats().Writebacks)
	}
}

func TestResetStats(t *testing.T) {
	c := tiny(&Memory{Latency: 10})
	c.Access(0, false)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", SizeBytes: 0, Ways: 2},
		{Name: "x", SizeBytes: 192, Ways: 2},   // 3 lines, not divisible
		{Name: "x", SizeBytes: 1536, Ways: 2},  // 12 sets: not power of two... 1536/64=24/2=12
		{Name: "x", SizeBytes: 2176, Ways: 17}, // 2 sets, but one order word ranks at most 16 ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg, &Memory{})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil next did not panic")
			}
		}()
		New(Config{Name: "x", SizeBytes: 512, Ways: 2}, nil)
	}()
}

func TestHierarchyPaths(t *testing.T) {
	h := DefaultHierarchy()
	// A walk access must bypass L1/L2.
	h.WalkAccess(4096)
	if h.L1.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Fatal("walk access touched L1/L2")
	}
	if h.LLC.Stats().Accesses != 1 {
		t.Fatal("walk access missed LLC")
	}
	// Data access enters at L1 and fills all levels.
	lat1 := h.DataAccess(1<<30, false)
	lat2 := h.DataAccess(1<<30, false)
	if lat2 >= lat1 {
		t.Fatalf("second access not faster: %d vs %d", lat2, lat1)
	}
	if lat2 != 4 {
		t.Fatalf("L1 hit latency = %d", lat2)
	}
	// Cold data access latency = 4+12+30+200.
	if lat1 != 246 {
		t.Fatalf("cold access latency = %d, want 246", lat1)
	}
	if h.Mem.Accesses() != 2 {
		t.Fatalf("memory accesses = %d", h.Mem.Accesses())
	}
	if h.L1.Name() != "L1" || h.L1.Sets() != 64 {
		t.Fatalf("L1 geometry: %s/%d sets", h.L1.Name(), h.L1.Sets())
	}
}

func TestDistinctSetsNoConflict(t *testing.T) {
	c := tiny(&Memory{Latency: 10})
	// Fill all 8 lines (4 sets × 2 ways) with distinct lines; no
	// evictions should occur.
	for set := 0; set < 4; set++ {
		for way := 0; way < 2; way++ {
			c.Access(arch.PAddr(set*64+way*256), false)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	// All hit now.
	before := c.Stats().Hits
	for set := 0; set < 4; set++ {
		for way := 0; way < 2; way++ {
			c.Access(arch.PAddr(set*64+way*256), false)
		}
	}
	if c.Stats().Hits != before+8 {
		t.Fatalf("hits = %d, want %d", c.Stats().Hits, before+8)
	}
}
