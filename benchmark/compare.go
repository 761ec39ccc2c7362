package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // tolerated worsening, as a share of the parent's median
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// loadResults reads every untraced result file of a run set, by
// workload.
func loadResults(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", dir)
	}
	return out, nil
}

// verdict is the judgement of one (workload, metric) pair.
type verdict struct {
	Workload, Metric string
	Parent, Change   [3]float64 // q1, median, q3
	Wins, Pairs      int        // pairs (matched by seed) the change won
	Verdict          string     // better, worse, unchanged, unresolved
	Spread, Bound    float64
}

// judge compares one metric's runs. A change is worse when its median is
// worse than the parent's by more than the bound, however wide the
// spread: no change may show a regression past its bound. Otherwise,
// when either side's quartile spread is wider than the bound, the metric
// is unresolved, unless every change run beats every parent run. A
// change is better when it wins at least nine tenths of the seed-matched
// pairs and the medians differ by more than the parent's own quartile
// spread.
func judge(parent, change map[uint64]float64, b bound) verdict {
	v := verdict{Metric: b.Name, Bound: b.Bound}
	lower := b.Better == "lower"
	beats := func(a, c float64) bool {
		if lower {
			return a < c
		}
		return a > c
	}
	values := func(m map[uint64]float64) []float64 {
		var xs []float64
		for _, x := range m {
			xs = append(xs, x)
		}
		return xs
	}
	pv, cv := values(parent), values(change)
	v.Parent[0], v.Parent[1], v.Parent[2] = quartiles(pv)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(cv)
	for seed, p := range parent {
		if c, ok := change[seed]; ok {
			v.Pairs++
			if beats(c, p) {
				v.Wins++
			}
		}
	}
	rel := func(q [3]float64) float64 { return math.Abs(q[2]-q[0]) / math.Abs(q[1]) }
	v.Spread = math.Max(rel(v.Parent), rel(v.Change))
	worsening := (v.Change[1] - v.Parent[1]) / math.Abs(v.Parent[1])
	if !lower {
		worsening = -worsening
	}
	allBetter := len(pv) > 0 && len(cv) > 0
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && beats(c, p)
		}
	}
	switch {
	case worsening > b.Bound:
		v.Verdict = "worse"
	case v.Spread > b.Bound && !allBetter:
		v.Verdict = "unresolved"
	case v.Pairs > 0 && v.Wins*10 >= v.Pairs*9 && beats(v.Change[1], v.Parent[1]) &&
		math.Abs(v.Change[1]-v.Parent[1]) > v.Parent[2]-v.Parent[0]:
		v.Verdict = "better"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareSets judges every workload and end-to-end metric, and lists the
// problems that fail the comparison outright: digests that differ for a
// seed both sides ran, incorrect change runs, and more failed operations
// than the parent's.
func compareSets(parent, change map[string][]result, bounds []bound) ([]verdict, []string) {
	var vs []verdict
	var problems []string
	names := make([]string, 0, len(parent))
	for w := range parent {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		ch, ok := change[w]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no change runs", w))
			continue
		}
		digests := map[uint64]string{}
		parentFailed, changeFailed := 0, 0
		for _, r := range parent[w] {
			digests[r.Seed] = r.Digest
			parentFailed += r.Failed
		}
		for _, r := range ch {
			changeFailed += r.Failed
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				problems = append(problems, fmt.Sprintf("%s seed %d: answer digest %s, parent %s", w, r.Seed, r.Digest, d))
			}
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: change run failed its checks: %s", w, r.Seed, strings.Join(r.Problems, "; ")))
			}
		}
		if changeFailed > parentFailed {
			problems = append(problems, fmt.Sprintf("%s: %d failed operations, parent %d", w, changeFailed, parentFailed))
		}
		for _, b := range bounds {
			byseed := func(rs []result) map[uint64]float64 {
				m := map[uint64]float64{}
				for _, r := range rs {
					if x, ok := r.Metrics[b.Name]; ok {
						m[r.Seed] = x.Value
					}
				}
				return m
			}
			v := judge(byseed(parent[w]), byseed(ch), b)
			v.Workload = w
			vs = append(vs, v)
		}
	}
	return vs, problems
}

func printVerdicts(w io.Writer, vs []verdict, problems []string) {
	fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-6s %-7s %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "spread", "verdict")
	for _, v := range vs {
		q := func(x [3]float64) string { return fmt.Sprintf("%.4g/%.4g/%.4g", x[0], x[1], x[2]) }
		fmt.Fprintf(w, "%-13s %-17s %-32s %-32s %-6s %-7s %s (bound %.0f%%)\n", v.Workload, v.Metric, q(v.Parent), q(v.Change),
			fmt.Sprintf("%d/%d", v.Wins, v.Pairs), fmt.Sprintf("%.1f%%", 100*v.Spread), v.Verdict, 100*v.Bound)
	}
	for _, p := range problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}

// compareMain is `benchmark compare PARENT_DIR CHANGE_DIR`, judged by
// the bounds of the repository root's BENCHMARK.json.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	return compareDirs(os.Stdout, filepath.Join(root, "BENCHMARK.json"), args[0], args[1])
}

// compareDirs judges the run set in changeDir against the one in
// parentDir and prints the verdicts to w. It returns 1 when a metric got
// worse or a problem was found.
func compareDirs(w io.Writer, benchPath, parentDir, changeDir string) int {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	change, err := loadResults(changeDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	vs, problems := compareSets(parent, change, bounds)
	printVerdicts(w, vs, problems)
	for _, v := range vs {
		if v.Verdict == "worse" {
			return 1
		}
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}
