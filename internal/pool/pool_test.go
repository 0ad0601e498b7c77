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
