package pool

import "testing"

// TestGetClearsRecycledSlices dirties slices, hands them back, and
// checks every later Get of any length returns a zeroed slice of that
// length, whether it came from the pool or not. Power-of-two lengths
// may reuse a dirtied slice; other lengths always allocate.
func TestGetClearsRecycledSlices(t *testing.T) {
	var p Slices[int32]
	for _, n := range []int{1, 2, 3, 64, 100, 1024} {
		for round := 0; round < 3; round++ {
			s := p.Get(n)
			if len(s) != n {
				t.Fatalf("Get(%d) has length %d", n, len(s))
			}
			for i, v := range s {
				if v != 0 {
					t.Fatalf("Get(%d) round %d: element %d is %d, want 0", n, round, i, v)
				}
				s[i] = int32(i + 1)
			}
			p.Put(s)
		}
	}
	p.Put(nil) // an empty slice is dropped, not pooled
	if s := p.Get(0); len(s) != 0 {
		t.Fatalf("Get(0) has length %d", len(s))
	}
}

// TestGetUnclearedKeepsContents hands dirtied slices back and checks
// that GetUncleared returns slices of the asked length without
// clearing them: a pooled slice comes back with its old contents,
// while Get still clears the same pool's slices. Lengths that are not
// a power of two allocate a zeroed slice.
func TestGetUnclearedKeepsContents(t *testing.T) {
	var p Slices[uint64]
	reused := 0
	for round := 0; round < 100; round++ {
		s := p.GetUncleared(256)
		if len(s) != 256 {
			t.Fatalf("GetUncleared(256) has length %d", len(s))
		}
		if s[0] == 0xdead {
			reused++
		}
		for i := range s {
			s[i] = 0xdead
		}
		p.Put(s)
		if round%10 == 9 {
			for i, v := range p.Get(256) {
				if v != 0 {
					t.Fatalf("Get(256) after GetUncleared: element %d is %#x", i, v)
				}
			}
		}
	}
	if reused == 0 {
		t.Error("GetUncleared never returned a pooled slice with its contents")
	}
	if s := p.GetUncleared(100); len(s) != 100 || s[0] != 0 {
		t.Fatalf("GetUncleared(100) = len %d, first %#x", len(s), s[0])
	}
}
