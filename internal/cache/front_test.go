package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"colt/internal/arch"
)

// sharedStep is one step of a seeded stream for the sharing test: a
// data reference, and the walk fetches each variant makes before it.
type sharedStep struct {
	addr  arch.PAddr
	write bool
	walks [][]arch.PAddr // walks[v]: variant v's PTE lines, in order
}

const (
	sharedVariants = 4
	llcSets        = 4096 // the paper LLC's set count
	llcLines       = 65536
)

// ptLine is line i of a page-table frame in the frame block that maps
// to LLC sets block*64 .. block*64+63; tag picks which such frame.
func ptLine(block, tag, i int) arch.PAddr {
	pfn := uint64(tag)*64 + uint64(block)
	return arch.PAddr(pfn*arch.PageSize + uint64(i)*arch.CacheLineSize)
}

// Scripted walks: the sets each one forks and the step it lands in.
const (
	firstForkSet = 5  // variant 1 forks it on the first step
	twinSet      = 20 // variants 0 and 1 both fork-walk it in one step
	lateSet      = 40 // variant 2 forks it after a long shared history
)

// sharedStream draws n steps. Data references are 70% in LLC sets
// 0–255 with 40 tags a set (2.5× the LLC's ways), 30% uniform over four
// LLCs' worth of lines, with 30% writes, so the shared sets see hits,
// evictions and dirty writebacks from L2. Variants 0–2 walk at their
// own rates (1 in 8, 1 in 40, 1 in 200 steps), fetching one to four
// lines from page-table frames that map to LLC sets 64–255; variant 3
// never walks. Three scripted walks into sets 0–63, which no random
// walk reaches, cover a fork on the first step, two variants forking
// one set in the same step, and a fork after a long shared history.
func sharedStream(seed int64, n int) []sharedStep {
	r := rand.New(rand.NewSource(seed))
	rates := [sharedVariants]int{8, 40, 200, 0}
	out := make([]sharedStep, n)
	for i := range out {
		st := &out[i]
		var line uint64
		if r.Intn(10) < 7 {
			line = uint64(r.Intn(40))*llcSets + uint64(r.Intn(256))
		} else {
			line = uint64(r.Intn(4 * llcLines))
		}
		st.addr = arch.PAddr(line*arch.CacheLineSize + uint64(r.Intn(arch.CacheLineSize)))
		st.write = r.Intn(10) < 3
		st.walks = make([][]arch.PAddr, sharedVariants)
		for v, rate := range rates {
			if rate == 0 || r.Intn(rate) != 0 {
				continue
			}
			for k := 1 + r.Intn(4); k > 0; k-- {
				st.walks[v] = append(st.walks[v], ptLine(1+r.Intn(3), 1000+r.Intn(8), r.Intn(64)))
			}
		}
	}
	out[0].walks[1] = append([]arch.PAddr{ptLine(0, 2000, firstForkSet)}, out[0].walks[1]...)
	twin := n / 4
	out[twin].walks[0] = append(out[twin].walks[0], ptLine(0, 2001, twinSet))
	out[twin].walks[1] = append(out[twin].walks[1], ptLine(0, 2002, twinSet))
	out[n/2].walks[2] = append(out[n/2].walks[2], ptLine(0, 2003, lateSet))
	return out
}

// privateModel is the engine path the shared LLC replaces: a front
// whose recorded LLC-bound requests every variant replays, in order,
// into its own private hierarchy's LLC.
type privateModel struct {
	front *Front
	hs    []*Hierarchy
}

func (m *privateModel) access(addr arch.PAddr, write bool, lats []int) {
	lat, events, demand := m.front.DataAccess(addr, write)
	for i, h := range m.hs {
		lats[i] = lat
		for k, e := range events {
			if l := h.LLC.Access(e.Addr, e.Write); k == 0 && demand {
				lats[i] += l
			}
		}
	}
}

// poisonLanes fills n pooled lanes of each of the paper LLC's lengths
// with non-zero garbage and hands them back, so a variant LLC built
// next takes lanes whose every tag word and order word is wrong until
// a fork writes its set. The tag words hold tags 0–63, which the
// streams below use, half of them dirty, so a read before the fork
// would hit stale lines; the order words are random, most of them not
// even a permutation of the ways. Under -race the pool drops some at
// random.
func poisonLanes(seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	tags, order := make([][]uint32, n), make([][]uint64, n)
	for i := range n {
		tags[i], order[i] = tagLanes.Get(llcLines), orderLanes.Get(llcSets)
		for j := range tags[i] {
			tags[i][j] = uint32(1+r.Intn(64)) | uint32(r.Intn(2))<<31
		}
		for j := range order[i] {
			order[i][j] = r.Uint64() | 1
		}
	}
	for i := range n {
		tagLanes.Put(tags[i])
		orderLanes.Put(order[i])
	}
}

// TestSharedLLCMatchesPrivateLLCs runs a front with four variants
// beside four private hierarchies fed the same recorded requests, over
// seeded streams, and requires every walk latency and every variant's
// per-reference latency to match, step by step. The variants' LLCs
// are built on poisoned pooled lanes, which NewVariant does not clear.
// At the end each variant's LLC — its forked sets from its own LLC,
// the rest from the shared one — must hold exactly the private LLC's
// lines, dirty bits and recency orders.
func TestSharedLLCMatchesPrivateLLCs(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 60000
			stream := sharedStream(seed, n)
			ref := &privateModel{front: NewFront()}
			for range sharedVariants {
				ref.hs = append(ref.hs, DefaultHierarchy())
			}
			poisonLanes(seed, sharedVariants+1)
			front := NewFront()
			var shared []*Hierarchy
			for range sharedVariants {
				shared = append(shared, front.NewVariant())
			}
			defer func() {
				front.Release()
				ref.front.Release()
				for _, h := range ref.hs {
					h.Release()
				}
			}()
			lats := make([]int, sharedVariants)
			want := make([]int, sharedVariants)
			walks := 0
			for i, st := range stream {
				switch i {
				case 0:
					requireForked(t, front, firstForkSet, false)
				case n / 4:
					requireForked(t, front, twinSet, false)
				case n / 2:
					requireForked(t, front, lateSet, false)
					requireLongHistory(t, front.llc, lateSet)
				}
				for v, lines := range st.walks {
					for _, a := range lines {
						got, w := shared[v].WalkAccess(a), ref.hs[v].WalkAccess(a)
						if got != w {
							t.Fatalf("step %d: variant %d walk %#x latency %d, private LLC %d", i, v, uint64(a), got, w)
						}
						walks++
					}
				}
				front.Access(st.addr, st.write, lats)
				ref.access(st.addr, st.write, want)
				for v := range lats {
					if lats[v] != want[v] {
						t.Fatalf("step %d %#x write=%v: variant %d latency %d, private LLC %d",
							i, uint64(st.addr), st.write, v, lats[v], want[v])
					}
				}
			}
			for _, s := range []int{firstForkSet, twinSet, lateSet} {
				requireForked(t, front, s, true)
			}
			for v, h := range ref.hs {
				for s := range llcSets {
					src := front.llc
					if front.isForked(s) {
						src = shared[v].LLC
					}
					if !sameSet(src, h.LLC, s) {
						t.Fatalf("variant %d: LLC set %d differs from the private LLC's", v, s)
					}
				}
			}
			if walks == 0 || front.llc.Stats().Writebacks == 0 || shared[0].LLC.Stats().Hits == 0 {
				t.Fatalf("stream exercised too little: %d walks, shared %+v, forked %+v",
					walks, front.llc.Stats(), shared[0].LLC.Stats())
			}
		})
	}
}

func requireForked(t *testing.T, f *Front, s int, want bool) {
	t.Helper()
	if got := f.isForked(s); got != want {
		t.Fatalf("set %d forked = %v, want %v", s, got, want)
	}
}

// requireLongHistory checks that shared set s is full and holds a
// dirty line, so its fork must carry recency order and dirty bits.
func requireLongHistory(t *testing.T, c *Cache, s int) {
	t.Helper()
	dirty := false
	for _, w := range c.tags[s*c.ways : (s+1)*c.ways] {
		if w == 0 {
			t.Fatalf("shared set %d still has an empty way", s)
		}
		dirty = dirty || w&dirtyBit != 0
	}
	if !dirty {
		t.Fatalf("shared set %d has no dirty line", s)
	}
}

func sameSet(a, b *Cache, s int) bool {
	block := s * a.ways
	for j := range a.ways {
		if a.tags[block+j] != b.tags[block+j] {
			return false
		}
	}
	return a.order[s] == b.order[s]
}

// TestNewVariantAfterForkPanics pins NewVariant's guard: data accesses
// leave the front open to new variants, but once a walk has forked a
// set, a new variant's uncleared LLC would lack it, so NewVariant
// panics.
func TestNewVariantAfterForkPanics(t *testing.T) {
	f := NewFront()
	defer f.Release()
	h := f.NewVariant()
	f.Access(0, true, make([]int, 1))
	f.NewVariant()
	h.WalkAccess(ptLine(0, 2000, firstForkSet))
	defer func() {
		if recover() == nil {
			t.Fatal("NewVariant after a fork did not panic")
		}
	}()
	f.NewVariant()
}
