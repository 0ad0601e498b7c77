// Command bench is the repository's end-to-end benchmark. It runs one
// workload per process, measures its end-to-end metrics with tracing
// off, checks every output byte for byte, and prints one JSON result
// line last. With -trace it also records spans around the calls into
// each layer, replays one pass through the simulator layers, writes
// trace.json, and prints the per-layer metrics. See README.md.
//
//	go run . [-workload NAME] [-seed N] [-seconds S] [-trace] [-out DIR]
//	go run . -compare PARENT... -- CHANGE...
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// processStart anchors setup_s: the first set-up counts from process
// start.
var processStart = time.Now()

const (
	// defaultSeed is the engine's own default seed, the one the
	// committed goldens and the pinned hashes were produced with.
	defaultSeed     = 0xC017
	defaultLongRefs = 300_000
	defaultSeconds  = 15
)

// workloads lists every workload in the order a full run takes them.
var workloads = []string{"sim-golden", "sim-long", "serve-miss", "serve-hit"}

// config is one workload run. The fields below clients are sizes the
// smoke test shrinks; the command line always uses the defaults.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	out      string // trace.json and temporary server directories
	root     string // the repository checkout
	nproc    int
	clients  int

	setupReps int // how many times set-up runs at least (see moreSetups)
	hitSpecs  int
	longRefs  int
}

func defaultConfig() config {
	nproc := runtime.NumCPU()
	return config{
		seed:      defaultSeed,
		window:    defaultSeconds * time.Second,
		nproc:     nproc,
		clients:   min(2, nproc),
		setupReps: 3,
		hitSpecs:  32,
		longRefs:  defaultLongRefs,
	}
}

// setupBudget: while the set-ups so far took less than this, set-up
// runs again, up to three times setupReps, so a cheap set-up's median
// rests on more samples.
const setupBudget = time.Second

// moreSetups reports whether set-up should run again after the timed
// set-ups so far (seconds each).
func (cfg *config) moreSetups(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	n := len(setups)
	return n < cfg.setupReps || (total < setupBudget.Seconds() && n < 3*cfg.setupReps)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: sim-golden, sim-long, serve-miss or serve-hit (default: each in turn, each in a child process)")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated inputs (the default reproduces the goldens)")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window in seconds (traced: half untraced, half traced)")
	fs.BoolVar(&cfg.trace, "trace", false, "record spans, replay one pass through the layers, write trace.json, print per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for trace.json and temporary server state (default <repo>/.bench_build)")
	compare := fs.Bool("compare", false, "compare saved outputs: -compare PARENT... -- CHANGE...")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if err := runCompare(root, fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.root = root
	if cfg.out == "" {
		cfg.out = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.workload == "" {
		return runAll(cfg, *seconds, stdout, stderr)
	}
	res, err := runWorkload(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "# colt-bench workload=%s seed=%d seconds=%g trace=%v nproc=%d clients=%d %s\n",
		cfg.workload, cfg.seed, *seconds, cfg.trace, cfg.nproc, cfg.clients, runtime.Version())
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.Failed > 0 || len(res.Errors) > 0 {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "-trace 0" and "--trace 1" as "-trace=0" and
// "-trace=1": a boolean flag never consumes the next argument, so the
// spaced form must be joined before parsing.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot walks up from the working directory to the repository
// checkout the benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "internal", "experiments", "testdata", "goldens")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: internal/experiments/testdata/goldens not found")
		}
		dir = parent
	}
}

func runWorkload(cfg *config) (*result, error) {
	var res *result
	var err error
	if w, ok := simWorkloads[cfg.workload]; ok {
		res, err = runSim(cfg, w)
	} else if w, ok := serveWorkloads[cfg.workload]; ok {
		res, err = runServe(cfg, w)
	} else {
		return nil, fmt.Errorf("unknown workload %q; valid workloads: %v", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	res.e2e("error_rate", "ratio", errorRate(res.Attempted, res.Failed), res.Attempted)
	return res, nil
}

// runAll runs every workload, each in a fresh child process writing to
// its own subdirectory of the output directory.
func runAll(cfg config, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		out := filepath.Join(cfg.out, w)
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace="+strconv.FormatBool(cfg.trace), "-out", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}
