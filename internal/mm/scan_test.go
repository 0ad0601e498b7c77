package mm

import (
	"fmt"
	"testing"

	"colt/internal/arch"
	"colt/internal/rng"
)

// The naive scanners below are the compaction pass's frame-by-frame
// loops: one frame's Allocated and Movable per step.

func naiveNextMovable(pm *PhysMem, from, end arch.PFN) arch.PFN {
	for p := from; p < end; p++ {
		if pm.Allocated(p) && pm.Movable(p) {
			return p
		}
	}
	return end
}

func naiveMovableRun(pm *PhysMem, migScan, freeScan arch.PFN, left int) int {
	k := 1
	for k < maxMigrateRun && k < left && migScan+arch.PFN(k) < freeScan {
		if p := migScan + arch.PFN(k); !pm.Allocated(p) || !pm.Movable(p) {
			break
		}
		k++
	}
	return k
}

func naiveFindFreeRun(pm *PhysMem, lo, hi arch.PFN, k int) (base, hint arch.PFN, ok bool) {
	run := 0
	for p := hi; p > lo; p-- {
		if !pm.Allocated(p) {
			run++
		} else {
			run = 0
		}
		if run == k {
			return p, p - 1, true
		}
	}
	return 0, lo, false
}

// scanWord draws one bitmap word, biased toward the shapes that break
// word scanners: all ones, all zeros, a lone bit 0 or bit 63, long
// runs crossing the word boundary, and random density.
func scanWord(r *rng.RNG) uint64 {
	switch r.Intn(8) {
	case 0:
		return ^uint64(0)
	case 1:
		return 0
	case 2:
		return 1
	case 3:
		return 1 << 63
	case 4:
		return ^uint64(1 << 63) // ones with bit 63 clear
	case 5:
		return ^uint64(1) // ones with bit 0 clear
	case 6:
		return r.Uint64() | r.Uint64() // dense
	default:
		return r.Uint64()
	}
}

// randomScanMem builds an n-frame memory with random frame bitmaps.
// Movable frames are a subset of allocated ones, as in a live system
// (freeing clears both bits); bits past frame n stay clear.
func randomScanMem(r *rng.RNG, n int) *PhysMem {
	pm := NewPhysMem(n)
	for w := range pm.allocated {
		pm.allocated[w] = scanWord(r)
		pm.movable[w] = pm.allocated[w] & scanWord(r)
	}
	if tail := n % 64; tail != 0 {
		last := len(pm.allocated) - 1
		pm.allocated[last] &= 1<<tail - 1
		pm.movable[last] &= 1<<tail - 1
	}
	return pm
}

// TestWordScannersMatchFrameLoops pins the three word scanners of the
// compaction pass to the frame loops they replace, on random bitmaps
// whose frame counts end mid-word: the migrate scanner's skip, the
// run length with every cap (maxMigrateRun, the budget left, the
// frames below freeScan) at and around its boundary, and the free-run
// search for every k from 1 to 64.
func TestWordScannersMatchFrameLoops(t *testing.T) {
	r := rng.New(0x5ca7)
	for _, n := range []int{1, 63, 64, 65, 127, 129, 200, 333, 511, 1000} {
		for trial := 0; trial < 6; trial++ {
			pm := randomScanMem(r, n)
			name := fmt.Sprintf("n=%d/trial=%d", n, trial)
			last := arch.PFN(n - 1)
			for from := arch.PFN(0); from <= last; from++ {
				ends := []arch.PFN{from, from + 1, last, from + arch.PFN(r.Intn(n-int(from)))}
				for _, end := range ends {
					if end > last {
						continue
					}
					if got, want := pm.nextMovable(from, end), naiveNextMovable(pm, from, end); got != want {
						t.Fatalf("%s: nextMovable(%d, %d) = %d, frame loop %d", name, from, end, got, want)
					}
				}
			}
			for mig := arch.PFN(0); mig < last; mig++ {
				if !pm.Allocated(mig) || !pm.Movable(mig) {
					continue
				}
				gap := int(last - mig)
				frees := []arch.PFN{mig + 1, last, mig + arch.PFN(1+r.Intn(gap))}
				for _, d := range []int{maxMigrateRun - 1, maxMigrateRun, maxMigrateRun + 1, 2, 3} {
					if d <= gap {
						frees = append(frees, mig+arch.PFN(d))
					}
				}
				for _, free := range frees {
					for _, left := range []int{1, 2, 7, maxMigrateRun - 1, maxMigrateRun, maxMigrateRun + 1, 1 << 20} {
						if got, want := pm.movableRun(mig, free, left), naiveMovableRun(pm, mig, free, left); got != want {
							t.Fatalf("%s: movableRun(%d, %d, %d) = %d, frame loop %d", name, mig, free, left, got, want)
						}
					}
				}
			}
			for k := 1; k <= 64; k++ {
				for i := 0; i < 24; i++ {
					hi := last - arch.PFN(r.Intn(min(n, 80)))
					if i%3 == 0 {
						hi = last
					}
					lo := arch.PFN(0)
					if hi > 0 && i%2 == 1 {
						lo = arch.PFN(r.Intn(int(hi)))
					}
					gb, gh, gok := pm.findFreeRun(lo, hi, k)
					wb, wh, wok := naiveFindFreeRun(pm, lo, hi, k)
					if gb != wb || gh != wh || gok != wok {
						t.Fatalf("%s: findFreeRun(%d, %d, %d) = %d,%d,%v, frame loop %d,%d,%v",
							name, lo, hi, k, gb, gh, gok, wb, wh, wok)
					}
				}
			}
		}
	}
}
