// Command contig runs the page-allocation contiguity characterization
// (the paper's §6) for one benchmark or all of them under a chosen
// kernel configuration, printing the CDF samples and averages.
//
// Usage:
//
//	contig [-bench Mcf] [-ths=false] [-lowcompaction] [-memhog 25] [-quick]
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
		bench   = flag.String("bench", "", "benchmark name (empty = all)")
		ths     = flag.Bool("ths", true, "enable transparent hugepage support")
		lowComp = flag.Bool("lowcompaction", false, "reduce memory compaction (defrag off)")
		memhog  = flag.Int("memhog", 0, "memhog percentage (0-94; the paper uses 0, 25, 50)")
		quick   = flag.Bool("quick", false, "small fast run")
	)
	flag.Parse()

	opts := colt.DefaultOptions()
	if *quick {
		opts = colt.QuickOptions()
	}
	kernel := colt.KernelConfig{THP: *ths, LowCompaction: *lowComp, MemhogPct: *memhog}
	if err := run(*bench, kernel, opts); err != nil {
		fmt.Fprintln(os.Stderr, "contig:", err)
		os.Exit(1)
	}
}

// run validates the flag-derived configuration and prints the
// contiguity table for the selected benchmarks.
func run(bench string, kernel colt.KernelConfig, opts colt.Options) error {
	if kernel.MemhogPct < 0 || kernel.MemhogPct >= 95 {
		return fmt.Errorf("-memhog %d%% is out of range [0, 95); the paper uses 0, 25, and 50", kernel.MemhogPct)
	}
	benches := colt.Benchmarks()
	if bench != "" {
		if !slices.Contains(colt.Benchmarks(), bench) {
			return fmt.Errorf("unknown benchmark %q (known: %s)", bench, strings.Join(colt.Benchmarks(), ", "))
		}
		benches = []string{bench}
	}
	fmt.Printf("kernel: THS=%v lowCompaction=%v memhog=%d%%\n\n", kernel.THP, kernel.LowCompaction, kernel.MemhogPct)
	fmt.Printf("%-12s %8s %10s %8s  CDF at 1/4/16/64/256/1024\n", "benchmark", "avg", "superpages", ">512")
	for _, b := range benches {
		rep, err := colt.MeasureContiguity(b, kernel, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8.1f %10d %8.2f  %.2f %.2f %.2f %.2f %.2f %.2f\n",
			rep.Bench, rep.Average, rep.SuperpagePages, rep.FracOver512,
			rep.CDF[1], rep.CDF[4], rep.CDF[16], rep.CDF[64], rep.CDF[256], rep.CDF[1024])
	}
	return nil
}
