package experiments

import (
	"fmt"
	"sort"
	"strings"

	"colt/internal/metrics"
	"colt/internal/workload"
)

// NamedExperiment is one artifact of the registry: a stable name, a
// one-line description, and two ways to run its driver. Run emits the
// driver's structured records into opts.Metrics and renders nothing:
// the metrics report is its whole output, which is what the serving
// daemon caches and returns. Text runs the same driver, emitting the
// same records, and returns the tables cmd/experiments prints, or on
// an error the text rendered before it. Each call builds private
// simulation state, so entries may run concurrently — except the
// fig18 and fig21 entries of one SharedRegistry, which share an
// evaluation.
type NamedExperiment struct {
	Name string
	Desc string
	Run  func(opts Options) error
	Text func(opts Options) (string, error)
}

// Registry returns every experiment, in display order. Every entry is
// deterministic: for a fixed Options snapshot its metrics report is
// byte-identical across runs, worker counts, and machines — the
// property that makes reports content-addressable by their canonical
// spec. Entries are independent: fig18 and fig21 each run the
// standard evaluation.
func Registry() []NamedExperiment { return registry(RunStandardEvaluation) }

// SharedRegistry is Registry for one multi-experiment run, such as
// the CLI's -exp all: its fig18 and fig21 entries share one standard
// evaluation (see evalCache), so running both simulates it once while
// both reports stay byte-identical to Registry's.
func SharedRegistry() []NamedExperiment {
	var std evalCache
	return registry(std.get)
}

// registry defines every entry once, from its driver and its
// renderer; standard supplies the Figure 18/21 evaluation.
func registry(standard func(Options) (*Evaluation, error)) []NamedExperiment {
	elims := func(title string, variants ...string) func(*Evaluation) string {
		return func(ev *Evaluation) string {
			return RenderEliminations(title, variants, ev.Eliminations()) + "\n"
		}
	}
	return []NamedExperiment{
		artifact("table1", "Table 1: real-system TLB MPMI, THS on/off", Table1,
			func(rows []Table1Row) string {
				return "Table 1: real-system TLB misses per million instructions\n" + RenderTable1(rows) + "\n"
			}),
		{Name: "contig", Desc: "Figures 7-15: contiguity CDFs per kernel configuration",
			Run: func(opts Options) error { return contiguityFigures(opts, nil) },
			Text: func(opts Options) (string, error) {
				var b strings.Builder
				err := contiguityFigures(opts, &b)
				return b.String(), err
			}},
		artifact("fig16", "Figure 16: average contiguity vs memhog, THS on", Figure16,
			func(rows []MemhogRow) string {
				return RenderMemhog("Figure 16: average contiguity, THS on, varying memhog", rows) + "\n"
			}),
		artifact("fig17", "Figure 17: average contiguity vs memhog, THS off", Figure17,
			func(rows []MemhogRow) string {
				return RenderMemhog("Figure 17: average contiguity, THS off, varying memhog", rows) + "\n"
			}),
		artifact("fig18", "Figure 18: % of baseline TLB misses eliminated", standard,
			elims("Figure 18: % of baseline TLB misses eliminated", "colt-sa", "colt-fa", "colt-all")),
		artifact("fig19", "Figure 19: CoLT-SA index left-shift sweep", Figure19,
			elims("Figure 19: % of baseline misses eliminated by CoLT-SA index left-shift", "shift-1", "shift-2", "shift-3")),
		artifact("fig20", "Figure 20: L2 associativity study", Figure20,
			func(rows []AssocRow) string { return RenderFigure20(rows) + "\n" }),
		artifact("fig21", "Figure 21: modeled performance improvement", standard,
			func(ev *Evaluation) string {
				return RenderPerformance([]string{"colt-sa", "colt-fa", "colt-all"}, ev.Performance()) + "\n"
			}),
		artifact("fa-ablation", "Ablation: CoLT-FA with/without L2 fill (§7.1.3)", AblationFAL2Fill,
			elims("Ablation (§7.1.3): CoLT-FA with/without L2 fill", "fa-l2fill", "fa-nofill")),
		artifact("all-ablation", "Ablation: CoLT-All with/without L2 fill (§7.1.3)", AblationAllL2Fill,
			elims("Ablation (§7.1.3): CoLT-All with/without L2 fill", "all-l2fill", "all-nofill")),
		artifact("prefetch", "Extension: CoLT vs sequential TLB prefetching", PrefetchComparison,
			func(rows []PrefetchRow) string { return RenderPrefetchComparison(rows) + "\n" }),
		artifact("subblock", "Extension: CoLT-SA vs partial-subblock TLBs", SubblockComparison,
			func(rows []SubblockRow) string { return RenderSubblockComparison(rows) + "\n" }),
		artifact("refinements", "Extension: future-work refinements ablation", RefinementsAblation,
			elims("Extension: future-work refinements (graceful uncoalescing, coalescing-aware LRU)",
				"colt-all", "all+graceful", "all+biaslru", "all+both")),
		artifact("supsize", "Extension: CoLT-FA superpage-TLB size sensitivity", SupSizeSensitivity,
			func(rows []SupSizeRow) string { return RenderSupSizeSensitivity(rows) + "\n" }),
		artifact("l2size", "Extension: L2 TLB size sensitivity", L2SizeSensitivity,
			func(rows []L2SizeRow) string { return RenderL2SizeSensitivity(rows) + "\n" }),
		artifact("virt", "Extension: CoLT under virtualization (2D walks)", VirtualizationComparison,
			func(rows []VirtRow) string { return RenderVirtualization(rows) + "\n" }),
		artifact("timeline", "Contiguity over time under memhog pressure", timelines, renderTimelines),
	}
}

// artifact builds an entry whose Run runs drive and whose Text also
// renders drive's result.
func artifact[T any](name, desc string, drive func(Options) (T, error), render func(T) string) NamedExperiment {
	return NamedExperiment{
		Name: name, Desc: desc,
		Run: func(opts Options) error { _, err := drive(opts); return err },
		Text: func(opts Options) (string, error) {
			out, err := drive(opts)
			if err != nil {
				return "", err
			}
			return render(out), nil
		},
	}
}

// contiguityFigures runs the three CDF figure groups in turn (Figures
// 7-9, 10-12 and 13-15), rendering each to text, if non-nil, as soon
// as it completes.
func contiguityFigures(opts Options, text *strings.Builder) error {
	for _, setup := range []SystemSetup{SetupTHSOnNormal, SetupTHSOffNormal, SetupTHSOffLow} {
		rows, err := ContiguityCDFs(setup, opts)
		if err != nil {
			return err
		}
		if text != nil {
			text.WriteString(RenderContiguity(setup, rows) + "\n")
		}
	}
	return nil
}

// timelineBenches are the benchmarks the timeline entry follows.
var timelineBenches = []string{"Mcf", "Sjeng"}

func timelines(opts Options) ([][]metrics.TimelinePoint, error) {
	specs := make([]workload.Spec, len(timelineBenches))
	for i, name := range timelineBenches {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return Timelines(specs, SetupTHSOnMemhog50, opts, 6)
}

func renderTimelines(series [][]metrics.TimelinePoint) string {
	var b strings.Builder
	for i, points := range series {
		if points == nil {
			// The benchmark's job failed under -faults; its failure
			// is reported separately.
			continue
		}
		b.WriteString(RenderTimeline(timelineBenches[i], SetupTHSOnMemhog50, points) + "\n")
	}
	return b.String()
}

// RegistryNames returns every registry name, sorted.
func RegistryNames() []string {
	reg := Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}

// ByName resolves a registry entry; an unknown name's error lists the
// valid set so API callers can self-correct.
func ByName(name string) (NamedExperiment, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return NamedExperiment{}, fmt.Errorf("unknown experiment %q; valid experiments: %s",
		name, strings.Join(RegistryNames(), ", "))
}
