package experiments

import (
	"context"
	"errors"
	"slices"
	"testing"

	"colt/internal/core"
)

// TestRunRefsCheckpoints pins where runRefs places its two between-
// reference events. Churn must run right after reference i for exactly
// the i with i%churnEvery == churnEvery-1, with every reference up to
// and including i already stepped; a context canceled mid-run must stop
// the loop at the next ctxCheckEvery boundary, not earlier and not
// later. The goldens run without mid-run churn and churn leaves every
// counter unchanged at golden scale, so no byte-compared report would
// notice a misplaced burst.
func TestRunRefsCheckpoints(t *testing.T) {
	opts := QuickOptions()
	b, _, err := newBenchSim(mustSpec(t, "Mcf"), SetupTHSOnNormal, opts, []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "colt-all", Config: core.CoLTAllConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.runRefs(opts, opts.Warmup, 0, nil); err != nil {
		t.Fatal(err)
	}

	// run drives count references with churn every churnEvery, calling
	// cancel (when non-nil) from inside the churn at reference cancelAt.
	// It returns the churn indices, how many references were stepped,
	// and runRefs' error.
	run := func(count, churnEvery, cancelAt int, ctx context.Context, cancel func()) ([]int, int, error) {
		o := opts
		o.Ctx = ctx
		base := b.refClock
		var churned []int
		churn := func(i int) error {
			if got := int(b.refClock - base); got != i+1 {
				t.Errorf("churn(%d) ran after %d references, want %d", i, got, i+1)
			}
			churned = append(churned, i)
			if cancel != nil && i == cancelAt {
				cancel()
			}
			return nil
		}
		err := b.runRefs(o, count, churnEvery, churn)
		return churned, int(b.refClock - base), err
	}
	every := func(churnEvery, upTo int) []int {
		var want []int
		for i := churnEvery - 1; i < upTo; i += churnEvery {
			want = append(want, i)
		}
		return want
	}

	for _, tc := range []struct{ count, churnEvery int }{
		{10_000, 1000},
		{100, 7},
		{2*ctxCheckEvery + 5, ctxCheckEvery},
		{ctxCheckEvery + 1, ctxCheckEvery + 1},
	} {
		churned, stepped, err := run(tc.count, tc.churnEvery, -1, nil, nil)
		if err != nil {
			t.Fatalf("count=%d churnEvery=%d: %v", tc.count, tc.churnEvery, err)
		}
		if stepped != tc.count {
			t.Errorf("count=%d churnEvery=%d: stepped %d references", tc.count, tc.churnEvery, stepped)
		}
		if want := every(tc.churnEvery, tc.count); !slices.Equal(churned, want) {
			t.Errorf("count=%d churnEvery=%d: churn at %v, want %v", tc.count, tc.churnEvery, churned, want)
		}
	}

	// Cancel from inside a churn burst: the loop keeps stepping (and
	// churning) up to the next cancellation checkpoint, then aborts.
	for _, cancelAt := range []int{999, 4999} {
		ctx, cancel := context.WithCancel(context.Background())
		churned, stepped, err := run(3*ctxCheckEvery, 1000, cancelAt, ctx, cancel)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, err)
		}
		boundary := (cancelAt/ctxCheckEvery + 1) * ctxCheckEvery
		if stepped != boundary {
			t.Errorf("cancel at %d: stepped %d references, want %d", cancelAt, stepped, boundary)
		}
		if want := every(1000, boundary); !slices.Equal(churned, want) {
			t.Errorf("cancel at %d: churn at %v, want %v", cancelAt, churned, want)
		}
	}

	// A context canceled before the run starts steps nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	churned, stepped, err := run(ctxCheckEvery, 1000, -1, ctx, nil)
	if !errors.Is(err, context.Canceled) || stepped != 0 || len(churned) != 0 {
		t.Errorf("pre-canceled run: err=%v stepped=%d churned=%v, want context.Canceled, 0, none", err, stepped, churned)
	}
}
