package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"colt/internal/experiments"
	"colt/internal/metrics"
)

// simWorkload runs passes of a fixed experiment set through the engine
// in process. A pass renders and hashes every report, as the
// experiments CLI does, and its bytes are checked against the
// reference.
type simWorkload struct {
	exps    []string
	options func(cfg *config) experiments.Options
	// golden marks a workload whose default-seed reports are the
	// committed goldens.
	golden bool
	// pinned holds the default-seed report SHA-256 for workloads
	// without goldens, valid at the default reference length.
	pinned string
}

//go:embed testdata/sim-long.sha256
var simLongSums string

var simWorkloads = map[string]simWorkload{
	"sim-golden": {
		exps:    []string{"table1", "fig18", "fig20"},
		options: func(*config) experiments.Options { return experiments.GoldenOptions() },
		golden:  true,
	},
	"sim-long": {
		exps: []string{"fig18"},
		options: func(cfg *config) experiments.Options {
			o := experiments.QuickOptions()
			o.Refs, o.Warmup = cfg.longRefs, cfg.longRefs/10
			return o
		},
		pinned: simLongSums,
	},
}

// passResult is one pass's output and the engine's own timing of it.
type passResult struct {
	wall    time.Duration
	reports []passReport
	sums    []string
	jobs    int
	jobMs   []float64
	// phases holds each job's wall-clock milliseconds per engine phase
	// (build, warmup, simulate) from the collector's timing sidecar.
	phases       map[string][]float64
	schedBusy    time.Duration // summed job wall time
	encode, hash time.Duration
	reportBytes  int
}

// runPass runs every experiment once with a fresh collector, then
// renders and hashes its report. label is the pass's trace ID.
func runPass(tr *tracer, label string, exps []experiments.NamedExperiment, base experiments.Options) (passResult, error) {
	pr := passResult{phases: make(map[string][]float64)}
	root := tr.begin("sim.pass", label, 0)
	collectors := make([]*metrics.Collector, len(exps))
	start := time.Now()
	for i, e := range exps {
		o := base
		o.Metrics = metrics.NewCollector()
		collectors[i] = o.Metrics
		sp := tr.begin("experiments.run", label, root.id)
		err := e.Run(o)
		sp.end(1)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", e.Name, err)
		}
		t0 := time.Now()
		sp = tr.begin("metrics.encode", label, root.id)
		b, err := o.Metrics.Report(e.Name, o.Snapshot()).StableJSON()
		sp.end(1)
		if err != nil {
			return pr, fmt.Errorf("%s: rendering report: %w", e.Name, err)
		}
		t1 := time.Now()
		sp = tr.begin("metrics.hash", label, root.id)
		sum := metrics.Sum256Hex(b)
		sp.end(1)
		pr.encode += t1.Sub(t0)
		pr.hash += time.Since(t1)
		pr.reports = append(pr.reports, passReport{Name: e.Name, Bytes: b})
		pr.sums = append(pr.sums, sum)
		pr.reportBytes += len(b)
	}
	pr.wall = time.Since(start)
	root.end(len(exps))
	for i, c := range collectors {
		if err := pr.addTiming(exps[i].Name, c); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// addTiming folds one experiment's timing sidecar into the pass.
func (pr *passResult) addTiming(name string, c *metrics.Collector) error {
	raw, err := c.TimingJSON(name)
	if err != nil {
		return err
	}
	var t metrics.TimingReport
	if err := json.Unmarshal(raw, &t); err != nil {
		return fmt.Errorf("%s: decoding timing: %w", name, err)
	}
	for _, j := range t.Records {
		pr.jobMs = append(pr.jobMs, j.WallMS)
		for _, p := range j.Phases {
			pr.phases[p.Name] = append(pr.phases[p.Name], p.WallMS)
		}
	}
	pr.jobs += len(t.Records)
	pr.schedBusy += time.Duration(t.SchedMS * float64(time.Millisecond))
	return nil
}

// reference returns the bytes every pass must reproduce: the committed
// goldens or the pinned hash at the default seed, otherwise the first
// pass's own output.
func (w simWorkload) reference(cfg *config, first passResult) (map[string][]byte, error) {
	ref := make(map[string][]byte, len(first.reports))
	for _, r := range first.reports {
		ref[r.Name] = r.Bytes
	}
	if cfg.seed != defaultSeed {
		return ref, nil
	}
	if w.golden {
		for name := range ref {
			b, err := os.ReadFile(filepath.Join(cfg.root, "internal", "experiments", "testdata", "goldens", name+".json"))
			if err != nil {
				return nil, fmt.Errorf("reading golden: %w", err)
			}
			ref[name] = b
		}
		return ref, nil
	}
	if cfg.longRefs == defaultLongRefs {
		want := pinnedSums(w.pinned)
		for i, got := range first.sums {
			if i >= len(want) || got != want[i] {
				return nil, fmt.Errorf("%s report SHA-256 %s differs from the pinned value in testdata", first.reports[i].Name, got)
			}
		}
	}
	return ref, nil
}

// pinnedSums parses a testdata hash file: one hex digest per line,
// '#' starting a comment.
func pinnedSums(text string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// check compares every report of the pass with the reference bytes.
func (pr passResult) check(ref map[string][]byte) error {
	for _, r := range pr.reports {
		if !bytes.Equal(r.Bytes, ref[r.Name]) {
			return fmt.Errorf("%s report (%d bytes) differs from the reference (%d bytes): %s",
				r.Name, len(r.Bytes), len(ref[r.Name]), strings.Join(metrics.Diff(r.Bytes, ref[r.Name]), "; "))
		}
	}
	return nil
}

// simLoop is one timed window of passes.
type simLoop struct {
	passes   []passResult // kept only when traced
	walls    []float64    // seconds
	jobMs    []float64
	verified int // jobs in passes whose reports checked out
	elapsed  time.Duration
}

func runSimLoop(tr *tracer, cfg *config, exps []experiments.NamedExperiment, base experiments.Options,
	ref map[string][]byte, jobsPerPass int, window time.Duration, res *result) simLoop {
	var l simLoop
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		res.Attempted += jobsPerPass
		pr, err := runPass(tr, fmt.Sprintf("pass-%d", n), exps, base)
		if err == nil {
			err = pr.check(ref)
		}
		if err != nil {
			res.fail(jobsPerPass, err)
			continue
		}
		l.walls = append(l.walls, pr.wall.Seconds())
		l.jobMs = append(l.jobMs, pr.jobMs...)
		l.verified += pr.jobs
		if tr != nil {
			l.passes = append(l.passes, pr)
		}
	}
	l.elapsed = time.Since(start)
	return l
}

// runSim runs a simulator workload: set up (a verified warm pass,
// several times), then a timed window of passes; traced, a second
// window with spans and a replay of one pass through the layers.
func runSim(cfg *config, w simWorkload) (*result, error) {
	res := &result{Workload: cfg.workload, Traced: cfg.trace}
	exps := make([]experiments.NamedExperiment, len(w.exps))
	for i, name := range w.exps {
		e, err := experiments.ByName(name)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	base := w.options(cfg)
	base.Seed = cfg.seed
	base.Parallel = cfg.nproc

	var ref map[string][]byte
	var setups []float64
	jobsPerPass := 0
	for cfg.moreSetups(setups) {
		t0 := time.Now()
		if len(setups) == 0 {
			t0 = processStart
		}
		pr, err := runPass(nil, "setup", exps, base)
		if err != nil {
			return nil, fmt.Errorf("setup pass: %w", err)
		}
		if ref == nil {
			if ref, err = w.reference(cfg, pr); err != nil {
				return nil, err
			}
		}
		if err := pr.check(ref); err != nil {
			return nil, fmt.Errorf("setup pass: %w", err)
		}
		jobsPerPass = pr.jobs
		setups = append(setups, time.Since(t0).Seconds())
	}

	window := cfg.window
	if cfg.trace {
		window /= 2 // half untraced, half traced
	}
	before := readRuntime()
	plain := runSimLoop(nil, cfg, exps, base, ref, jobsPerPass, window, res)
	after := readRuntime()

	res.timing("setup_s", "s", setups)
	res.timing("pass_s", "s", plain.walls)
	latencies(res, plain.jobMs)
	res.e2e("goodput_rps", "1/s", float64(plain.verified)/plain.elapsed.Seconds(), plain.verified)
	if !cfg.trace {
		return res, nil
	}

	res.runtimeLayer(before, after, max(len(plain.walls)*jobsPerPass, 1))
	tr := newTracer()
	traced := runSimLoop(tr, cfg, exps, base, ref, jobsPerPass, window, res)
	if len(traced.passes) == 0 {
		return nil, fmt.Errorf("traced window completed no verified pass")
	}
	passLayers(res, traced.passes, cfg.nproc)
	res.layer("trace.overhead", "ratio", median(traced.walls)/median(plain.walls))
	if err := replayLayers(res, tr, traced.passes[0].reports, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// latencies adds the per-operation latency percentiles.
func latencies(res *result, opMs []float64) {
	s := summarize(opMs)
	for _, p := range []float64{50, 90, 99} {
		res.E2E = append(res.E2E, metricValue{Name: fmt.Sprintf("latency_p%g_ms", p), Unit: "ms", Value: percentile(opMs, p), Dist: &s})
	}
}

// passLayers adds the engine-side layer metrics of traced passes: the
// collector's per-job phase times, scheduler occupancy, and report
// encoding.
func passLayers(res *result, passes []passResult, nproc int) {
	phases := make(map[string][]float64)
	var busy, capacity time.Duration
	var encode, hash, kb []float64
	for _, p := range passes {
		for k, v := range p.phases {
			phases[k] = append(phases[k], v...)
		}
		busy += p.schedBusy
		capacity += p.wall * time.Duration(nproc)
		encode = append(encode, ms(p.encode))
		hash = append(hash, ms(p.hash))
		kb = append(kb, float64(p.reportBytes)/1024)
	}
	for _, ph := range []string{"build", "warmup", "simulate"} {
		res.layerTiming("experiments."+ph+"_ms", "ms", phases[ph], 50)
	}
	res.layer("sched.busy_share", "ratio", float64(busy)/float64(capacity))
	res.layerTiming("metrics.encode_ms", "ms", encode, 50)
	res.layerTiming("metrics.hash_ms", "ms", hash, 50)
	res.layer("metrics.report_kb", "KiB", median(kb))
}

// replayLayers replays the reports' jobs through the simulator layers,
// adds the layer metrics the spans give, and writes trace.json. A job
// whose replayed counters differ from its report fails the run.
func replayLayers(res *result, tr *tracer, reports []passReport, cfg *config) error {
	counts, err := replayPass(tr, reports)
	if err != nil {
		return err
	}
	if counts.MismatchedJobs > 0 {
		res.fail(0, fmt.Errorf("replay: %d of %d jobs differ from their report; first: %s",
			counts.MismatchedJobs, counts.Jobs, counts.FirstMismatch))
	}
	spans := tr.all()
	res.Spans = summarizeSpans(spans)
	res.spanLayer(res.Spans, counts)
	return writeChrome(filepath.Join(cfg.out, "trace.json"), spans)
}
