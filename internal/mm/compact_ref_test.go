package mm

import (
	"errors"
	"fmt"
	"testing"

	"colt/internal/arch"
	"colt/internal/rng"
)

// refCompact is the compaction pass as it was before its free-run
// searches were made linear: every movable run first searches for a
// free run of its own length, even when an earlier search of the same
// pass already failed for that length or a shorter one. Only its
// Aborted accounting follows the current rule (a pass that spent its
// budget is not aborted), so whole CompactStats can be compared.
func refCompact(c *Compactor, targetOrder, budget int) int {
	c.stats.Runs++
	migScan := arch.PFN(0)
	freeScan := arch.PFN(c.phys.NumFrames() - 1)
	moved := 0
	for migScan < freeScan && moved < budget {
		if targetOrder >= 0 && moved%exitCheckInterval == 0 && c.orderSatisfied(targetOrder) {
			return moved
		}
		f := c.phys.Frame(migScan)
		if !f.Allocated || !f.Movable {
			migScan++
			continue
		}
		k := 1
		for k < maxMigrateRun && moved+k < budget && migScan+arch.PFN(k) < freeScan {
			nf := c.phys.Frame(migScan + arch.PFN(k))
			if !nf.Allocated || !nf.Movable {
				break
			}
			k++
		}
		target, hint, ok := refFindFreeRun(c, migScan+arch.PFN(k), freeScan, k)
		if !ok && k > 1 {
			k = 1
			target, hint, ok = refFindFreeRun(c, migScan+1, freeScan, 1)
		}
		if !ok {
			break
		}
		freeScan = hint
		failedAt := arch.PFN(0)
		failed := false
		for i := 0; i < k; i++ {
			from := migScan + arch.PFN(i)
			if !c.migratePage(from, target+arch.PFN(i)) {
				failedAt, failed = from, true
				break
			}
			moved++
			c.stats.Migrated++
		}
		if failed {
			migScan = failedAt + 1
			continue
		}
		migScan += arch.PFN(k)
	}
	if moved < budget {
		c.stats.Aborted++
	}
	return moved
}

// refFindFreeRun is the reference free-run search: the highest k
// consecutive free frames in (lo, hi].
func refFindFreeRun(c *Compactor, lo, hi arch.PFN, k int) (base, hint arch.PFN, ok bool) {
	run := 0
	for p := hi; p > lo; p-- {
		if !c.phys.Frame(p).Allocated {
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

// diffWorld is one seeded random memory under its own compactor.
type diffWorld struct {
	pm  *PhysMem
	b   *Buddy
	mig *recordingMigrator
	c   *Compactor
}

// newDiffWorld builds the memory for seed: a random mix of free runs,
// movable runs of up to maxMigrateRun pages and pinned runs, with the
// run lengths and shares themselves drawn per seed. failAfter is the
// migrator's rollback point (0 for none) and vetoRate the share of
// migrations the fault hook vetoes, drawn from its own seeded stream.
func newDiffWorld(t *testing.T, seed uint64, failAfter int, vetoRate float64) *diffWorld {
	t.Helper()
	r := rng.New(seed)
	n := 512 << r.Intn(4)
	w := &diffWorld{pm: NewPhysMem(n), mig: &recordingMigrator{failAfter: failAfter}}
	w.b = NewBuddy(w.pm)
	w.c = NewCompactor(w.pm, w.b, w.mig, CompactionNormal)
	if vetoRate > 0 {
		veto := rng.New(seed ^ 0x7e70)
		vetoed := errors.New("vetoed")
		w.c.SetMigrateFaultHook(func() error {
			if veto.Bool(vetoRate) {
				return vetoed
			}
			return nil
		})
	}
	if _, err := w.b.AllocRange(n); err != nil {
		t.Fatal(err)
	}
	freeShare := 0.2 + 0.5*r.Float64()
	pinnedShare := 0.3 * r.Float64()
	freeMax := 1 + r.Intn(16)
	vpn := arch.VPN(0)
	for p := 0; p < n; {
		pfn := arch.PFN(p)
		x := r.Float64()
		switch {
		case x < freeShare:
			l := min(1+r.Intn(freeMax), n-p)
			w.b.FreeRange(pfn, l)
			p += l
		case x < freeShare+pinnedShare:
			l := min(1+r.Intn(4), n-p)
			for i := 0; i < l; i++ {
				w.pm.SetOwner(pfn+arch.PFN(i), PageOwner{PID: KernelPID}, false)
			}
			p += l
		default:
			l := min(1+r.Intn(maxMigrateRun), n-p)
			for i := 0; i < l; i++ {
				w.pm.SetOwner(pfn+arch.PFN(i), PageOwner{PID: 1, VPN: vpn}, true)
				vpn++
			}
			p += l
		}
	}
	return w
}

// diff describes the first difference between w and the reference
// world ref ("" when they agree): migration lists, daemon counters,
// per-order free-block counts and every frame's metadata.
func (w *diffWorld) diff(ref *diffWorld) string {
	if len(w.mig.moves) != len(ref.mig.moves) {
		return fmt.Sprintf("%d migrations, reference %d", len(w.mig.moves), len(ref.mig.moves))
	}
	for i := range w.mig.moves {
		if w.mig.moves[i] != ref.mig.moves[i] {
			return fmt.Sprintf("migration %d is %+v, reference %+v", i, w.mig.moves[i], ref.mig.moves[i])
		}
	}
	if w.c.Stats() != ref.c.Stats() {
		return fmt.Sprintf("stats %+v, reference %+v", w.c.Stats(), ref.c.Stats())
	}
	for k := 0; k < MaxOrder; k++ {
		if got, want := w.b.FreeBlocksOfOrder(k), ref.b.FreeBlocksOfOrder(k); got != want {
			return fmt.Sprintf("%d free blocks of order %d, reference %d", got, k, want)
		}
	}
	for i := 0; i < w.pm.NumFrames(); i++ {
		if got, want := w.pm.Frame(arch.PFN(i)), ref.pm.Frame(arch.PFN(i)); got != want {
			return fmt.Sprintf("frame %d is %+v, reference %+v", i, got, want)
		}
	}
	return ""
}

// compactStep is one call into the daemon and its reference twin.
type compactStep struct {
	name     string
	run, ref func(c *Compactor)
}

// TestCompactMatchesReference runs the pass against refCompact on
// seeded random memories: the direct budget through OnAllocFailure,
// then Compact(HugeOrder), small-budget passes and settle-style
// Compact(-1) passes, with rehoming rollbacks and vetoes mixed in.
// After every step both worlds must agree exactly, and both allocators
// must audit clean.
func TestCompactMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		failAfter := 0
		if seed%3 == 1 {
			failAfter = 1 + int(seed*37%400)
		}
		vetoRate := 0.0
		if seed%4 == 2 {
			vetoRate = 0.02 + float64(seed%5)*0.04
		}
		w := newDiffWorld(t, seed, failAfter, vetoRate)
		ref := newDiffWorld(t, seed, failAfter, vetoRate)
		order := 1 + int(seed%HugeOrder)
		budget := 1 + int(seed*13%(3*maxMigrateRun))
		// The first OnAllocFailure of a fresh compactor always compacts.
		steps := []compactStep{
			{"OnAllocFailure", func(c *Compactor) { c.OnAllocFailure(order) },
				func(c *Compactor) { c.stats.Direct++; refCompact(c, order, maxDirectMigrate) }},
			{"Compact(HugeOrder)", func(c *Compactor) { c.Compact(HugeOrder) },
				func(c *Compactor) { refCompact(c, HugeOrder, maxMigratePerRun) }},
			{"small budget", func(c *Compactor) { c.compact(-1, budget) },
				func(c *Compactor) { refCompact(c, -1, budget) }},
		}
		settle := compactStep{"Compact(-1)", func(c *Compactor) { c.Compact(-1) },
			func(c *Compactor) { refCompact(c, -1, maxMigratePerRun) }}
		steps = append(steps, steps[2], settle, settle, settle, settle)
		for i, s := range steps {
			s.run(w.c)
			s.ref(ref.c)
			if d := w.diff(ref); d != "" {
				t.Fatalf("seed %d (%d frames, failAfter %d, veto %.2f) step %d %s: %s",
					seed, w.pm.NumFrames(), failAfter, vetoRate, i, s.name, d)
			}
			if issues := w.b.Audit(); len(issues) > 0 {
				t.Fatalf("seed %d step %d %s: allocator inconsistent: %v", seed, i, s.name, issues)
			}
			if issues := ref.b.Audit(); len(issues) > 0 {
				t.Fatalf("seed %d step %d %s: reference allocator inconsistent: %v", seed, i, s.name, issues)
			}
		}
	}
}
