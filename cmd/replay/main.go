// Command replay runs a recorded reference trace (see cmd/tracegen)
// through the TLB hierarchies and reports miss rates for every policy.
// Pages are mapped on first touch with a configurable synthetic
// contiguity (-contig N maps physical runs of N pages), so external
// traces can be studied under controlled allocation contiguity.
//
// Usage:
//
//	replay -trace mcf.trace [-contig 16] [-policies baseline,colt-sa]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/core"
	"colt/internal/experiments"
	"colt/internal/mmu"
	"colt/internal/pagetable"
	"colt/internal/trace"
)

type seqFrames struct{ next arch.PFN }

func (s *seqFrames) AllocFrame() (arch.PFN, error) { s.next++; return s.next, nil }
func (s *seqFrames) FreeFrame(arch.PFN)            {}

func main() {
	var (
		path     = flag.String("trace", "", "trace file to replay (required)")
		contig   = flag.Int("contig", 16, "synthetic physical contiguity run length")
		policies = flag.String("policies", "baseline,colt-sa,colt-fa,colt-all,seq-prefetch", "comma-separated policies")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "replay: -trace is required")
		os.Exit(1)
	}
	names, err := parsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	if err := run(*path, *contig, names); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// parsePolicies validates a -policies flag value against the engine's
// policy table: entries are comma-separated, whitespace around each is
// ignored, and empty or duplicate entries are rejected along with
// unknown names.
func parsePolicies(s string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for _, raw := range strings.Split(s, ",") {
		p := strings.TrimSpace(raw)
		if p == "" {
			return nil, fmt.Errorf("empty policy in -policies %q (valid policies: %s)",
				s, strings.Join(experiments.PolicyNames(), ", "))
		}
		if _, err := experiments.PolicyVariant(p); err != nil {
			return nil, err
		}
		if seen[p] {
			return nil, fmt.Errorf("duplicate policy %q in -policies", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}

func run(path string, contig int, policies []string) error {
	if contig < 1 {
		return fmt.Errorf("contiguity must be positive, got %d", contig)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("reading trace %s: %w", path, err)
	}

	// Map the trace's pages on first touch: physical frames advance
	// sequentially within runs of the requested contiguity, then jump.
	table, err := pagetable.New(&seqFrames{next: 1 << 20})
	if err != nil {
		return err
	}
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	next := arch.PFN(1 << 22)
	inRun := 0
	ensure := func(vpn arch.VPN) error {
		if _, ok := table.Lookup(vpn); ok {
			return nil
		}
		if inRun == contig {
			next += 1000 // break the physical run
			inRun = 0
		}
		if err := table.Map(vpn, arch.PTE{PFN: next, Attr: attr}); err != nil {
			return err
		}
		next++
		inRun++
		return nil
	}

	fmt.Printf("replaying %d references (%d instructions) with %d-page synthetic contiguity\n\n",
		tr.Len(), tr.Instructions(), contig)
	fmt.Printf("%-13s %10s %10s %12s %12s\n", "policy", "L1 miss%", "L2 miss%", "walks", "walk cycles")
	for _, p := range policies {
		v, err := experiments.PolicyVariant(p)
		if err != nil {
			return err
		}
		walker := mmu.NewWalker(table, cache.DefaultHierarchy(), mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
		h := core.NewHierarchy(v.Config, walker)
		var replayErr error
		tr.Replay(func(rec trace.Record) bool {
			vpn := rec.VAddr.Page()
			if err := ensure(vpn); err != nil {
				replayErr = err
				return false
			}
			if res := h.Access(vpn); res.Fault {
				replayErr = fmt.Errorf("fault at vpn %d", vpn)
				return false
			}
			return true
		})
		if replayErr != nil {
			return replayErr
		}
		st := h.Stats()
		fmt.Printf("%-13s %10.2f %10.2f %12d %12d\n",
			p, 100*st.L1MissRate(), 100*st.L2MissRate(), st.Walks, st.WalkCycles)
	}
	return nil
}
