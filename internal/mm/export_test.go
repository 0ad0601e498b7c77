package mm

import (
	"fmt"
	"slices"
)

// DiffBuddies reports the first difference between two allocators'
// complete state, or "" when they match: free-list heads, the link and
// orderOf arrays frame by frame, per-order block counts, free pages,
// the allocated and movable bitmaps, frame owners, and every counter
// except Frees and Merges, which count calls and merges rather than
// state (freeing a run in one call leaves the same lists in fewer of
// both).
func DiffBuddies(a, b *Buddy) string {
	if a.freeHead != b.freeHead {
		return fmt.Sprintf("free-list heads %v vs %v", a.freeHead, b.freeHead)
	}
	if a.freeBlocks != b.freeBlocks {
		return fmt.Sprintf("per-order blocks %v vs %v", a.freeBlocks, b.freeBlocks)
	}
	if a.freePages != b.freePages {
		return fmt.Sprintf("free pages %d vs %d", a.freePages, b.freePages)
	}
	for i := range a.next {
		if a.next[i] != b.next[i] || a.prev[i] != b.prev[i] || a.orderOf[i] != b.orderOf[i] {
			return fmt.Sprintf("frame %d: next/prev/orderOf %d/%d/%d vs %d/%d/%d",
				i, a.next[i], a.prev[i], a.orderOf[i], b.next[i], b.prev[i], b.orderOf[i])
		}
	}
	if !slices.Equal(a.phys.allocated, b.phys.allocated) {
		return "allocated bitmaps differ"
	}
	if !slices.Equal(a.phys.movable, b.phys.movable) {
		return "movable bitmaps differ"
	}
	if !slices.Equal(a.phys.owners, b.phys.owners) {
		return "frame owners differ"
	}
	sa, sb := a.stats, b.stats
	sa.Frees, sa.Merges, sb.Frees, sb.Merges = 0, 0, 0, 0
	if sa != sb {
		return fmt.Sprintf("stats %+v vs %+v", sa, sb)
	}
	return ""
}
