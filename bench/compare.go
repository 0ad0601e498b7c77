package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runs holds each workload's untraced result lines, in the order the
// files gave them: workload → one metric map per run.
type runs map[string][]map[string]float64

// readRuns reads saved benchmark outputs. Each result line belongs to
// the workload named by the "# colt-bench" header before it; traced
// runs carry no end-to-end metrics and are skipped.
func readRuns(paths []string) (runs, error) {
	out := make(runs)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		workload, traced := "", false
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "# colt-bench ") {
				workload, traced = "", false
				for _, field := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(field, "workload="); ok {
						workload = v
					}
					traced = traced || field == "trace=true"
				}
				continue
			}
			if !strings.HasPrefix(line, "{") || traced {
				continue
			}
			if workload == "" {
				f.Close()
				return nil, fmt.Errorf("%s: result line without a preceding '# colt-bench workload=' header", p)
			}
			var res struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			vals := make(map[string]float64, len(res.Metrics))
			for k, v := range res.Metrics {
				vals[k] = v.Value
			}
			out[workload] = append(out[workload], vals)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// boundedMetric is an end-to-end metric of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict judges one workload × metric by the rule of the
// choosing-metrics guide (§8): a gain needs at least ten pairs, the
// change winning at least nine tenths of them (ties count for
// neither), and medians further apart than the parent's interquartile
// range; a parent spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run;
// otherwise the change may be worse than the parent's median by at
// most the bound. It also returns the change's wins.
func verdict(parent, change []float64, m boundedMetric) (string, int) {
	n := min(len(parent), len(change))
	if n == 0 {
		return "unresolved", 0
	}
	parent, change = parent[:n], change[:n]
	lower := m.Better == "lower"
	better := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	// The change's worst run against the parent's best.
	allBetter := better(minMax(change, lower), minMax(parent, !lower))
	worseBy := (mc - mp) / mp
	if !lower {
		worseBy = -worseBy
	}
	switch {
	case n >= 10 && wins*10 >= 9*n && math.Abs(mc-mp) > q3-q1 && better(mc, mp):
		return "improved", wins
	case (q3-q1)/mp > m.Bound && !allBetter:
		return "unresolved", wins
	case worseBy > m.Bound:
		return "worse", wins
	default:
		return "no worse", wins
	}
}

// minMax returns the largest of xs when largest is set, else the
// smallest.
func minMax(xs []float64, largest bool) float64 {
	s := sorted(xs)
	if largest {
		return s[len(s)-1]
	}
	return s[0]
}

// runCompare prints one verdict row per workload × end-to-end metric
// for args of the form PARENT... -- CHANGE..., runs paired in order.
func runCompare(root string, args []string, w io.Writer) error {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("usage: -compare PARENT... -- CHANGE...")
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	parent, err := readRuns(args[:sep])
	if err != nil {
		return err
	}
	change, err := readRuns(args[sep+1:])
	if err != nil {
		return err
	}
	names := make([]string, 0, len(parent))
	for wl := range parent {
		names = append(names, wl)
	}
	sort.Strings(names)
	fewPairs := false
	fmt.Fprintf(w, "%-11s %-15s %5s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "pairs", "parent_median", "change_median", "change", "p_spread", "wins", "verdict")
	for _, wl := range names {
		for _, m := range bench.EndToEnd {
			p, c := column(parent[wl], m.Name), column(change[wl], m.Name)
			n := min(len(p), len(c))
			if n == 0 {
				fmt.Fprintf(w, "%-11s %-15s %5d %14s %14s %8s %8s %6s  unresolved\n", wl, m.Name, 0, "-", "-", "-", "-", "-")
				continue
			}
			p, c = p[:n], c[:n]
			v, wins := verdict(p, c, m)
			mp, mc := median(p), median(c)
			fmt.Fprintf(w, "%-11s %-15s %5d %14.6g %14.6g %+7.2f%% %7.2f%% %3d/%-3d %s\n",
				wl, m.Name, n, mp, mc, 100*(mc-mp)/mp, 100*spread(p), wins, n, v)
			fewPairs = fewPairs || n < 10
		}
	}
	if fewPairs {
		fmt.Fprintln(w, "note: fewer than 10 pairs on some rows; no gain can be claimed there")
	}
	return nil
}

// column extracts one metric from every run that has it.
func column(rs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
