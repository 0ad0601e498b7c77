// Command coltsim runs one benchmark under a chosen kernel
// configuration and reports miss rates, eliminations, and modeled
// speedups for the baseline and the three CoLT designs.
//
// Usage:
//
//	coltsim -bench Mcf [-ths=false] [-lowcompaction] [-memhog 25] [-refs N] [-quick]
//
// Invalid flag values (unknown benchmark, out-of-range -memhog,
// negative -refs) exit with status 2 and an error naming the valid
// set; simulation failures exit with status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"colt"
)

func main() {
	var (
		bench   = flag.String("bench", "Mcf", "benchmark name (see -list)")
		list    = flag.Bool("list", false, "list benchmark names and exit")
		ths     = flag.Bool("ths", true, "enable transparent hugepage support")
		lowComp = flag.Bool("lowcompaction", false, "reduce memory compaction (defrag off)")
		memhog  = flag.Int("memhog", 0, "memhog percentage (0-94; the paper uses 0, 25, 50)")
		refs    = flag.Int("refs", 0, "measured references (default full run)")
		quick   = flag.Bool("quick", false, "small fast run")
	)
	flag.Parse()

	if *list {
		for _, b := range colt.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	opts := colt.DefaultOptions()
	if *quick {
		opts = colt.QuickOptions()
	}
	kernel := colt.KernelConfig{THP: *ths, LowCompaction: *lowComp, MemhogPct: *memhog}
	if err := validate(*bench, kernel, *refs); err != nil {
		fmt.Fprintln(os.Stderr, "coltsim:", err)
		os.Exit(2)
	}
	if *refs > 0 {
		opts.References = *refs
		opts.Warmup = *refs / 10
	}
	if err := run(*bench, kernel, opts); err != nil {
		fmt.Fprintln(os.Stderr, "coltsim:", err)
		os.Exit(1)
	}
}

// validate checks the flag-derived configuration, returning errors
// that name the offending flag and the valid set.
func validate(bench string, kernel colt.KernelConfig, refs int) error {
	if kernel.MemhogPct < 0 || kernel.MemhogPct >= 95 {
		return fmt.Errorf("-memhog %d%% is out of range [0, 95); the paper uses 0, 25, and 50", kernel.MemhogPct)
	}
	if refs < 0 {
		return fmt.Errorf("-refs must be >= 0, got %d", refs)
	}
	if !slices.Contains(colt.Benchmarks(), bench) {
		return fmt.Errorf("unknown benchmark %q (known: %s)", bench, strings.Join(colt.Benchmarks(), ", "))
	}
	return nil
}

// run simulates the benchmark and prints the per-policy table.
func run(bench string, kernel colt.KernelConfig, opts colt.Options) error {
	rep, err := colt.RunBenchmark(bench, kernel, opts, colt.AllPolicies())
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, avg contiguity %.1f pages, perfect-TLB speedup %.1f%%\n\n",
		rep.Bench, rep.Instructions, rep.AvgContiguity, rep.PerfectSpeedupPct)
	fmt.Printf("%-10s %12s %12s %10s %10s %10s\n",
		"policy", "L1 MPMI", "L2 MPMI", "L1 elim%", "L2 elim%", "speedup%")
	for _, p := range rep.Policies {
		fmt.Printf("%-10s %12.0f %12.0f %10.1f %10.1f %10.1f\n",
			p.Policy, p.L1MPMI, p.L2MPMI, p.L1Eliminated, p.L2Eliminated, p.SpeedupPct)
	}
	return nil
}
