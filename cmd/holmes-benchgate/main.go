// Command holmes-benchgate is the CI perf-regression gate: it parses
// `go test -bench` output, takes the fastest repetition of each gated
// benchmark (the minimum is the least noisy location estimate on shared
// runners), compares it to the committed ledger, and exits non-zero when
// a benchmark regressed by more than the allowed fraction. When the
// ledger records allocs/op (requires -benchmem output), allocation count
// is gated the same way — a concurrency refactor can't silently trade
// speed for garbage.
//
// Usage:
//
//	go test -run '^$' -bench '^(BenchmarkTable3|BenchmarkPlanBatch|BenchmarkFleetSchedule|BenchmarkFleetScheduleWarm|BenchmarkFleetMutate|BenchmarkFleetMutateLarge)$' -benchmem -count 3 . | tee bench.txt
//	holmes-benchgate -max-regress 0.25 < bench.txt
//	holmes-benchgate -gate BenchmarkTable3=BENCH_baseline.json -gate BenchmarkPlanBatch=BENCH_serve.json < bench.txt
//
// Ledgers are the repo's BENCH_*.json documents. Each gates its
// benchmarks through a `benchmarks` section mapping benchmark name to
// {ns_per_op, allocs_per_op}: the level the recording change measured,
// which later changes must hold. A gated name with no usable entry there
// is an error (exit 2).
//
// Work counters are gated exactly. An entry's `counters` map is keyed
// by the unit the benchmark reports a counter in ("searches/op",
// "pruned/op"); every repetition must report each recorded unit at
// exactly the recorded value, and a unit the output lacks, in one
// repetition or in all of them, fails: the counts are deterministic, so
// any difference is a change in the work done, never host noise. A
// metric the map does not name is reported, not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// gates maps benchmark name -> ledger path; repeated -gate flags add
// entries.
type gates map[string]string

func (g gates) String() string { return fmt.Sprint(map[string]string(g)) }

func (g gates) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("bad -gate %q (want BenchmarkName=ledger.json)", s)
	}
	g[name] = path
	return nil
}

// target is one gated level: ns/op always, allocs/op when the ledger
// records it (0 = not gated), and the work counters it holds exactly,
// by unit.
type target struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Counters    map[string]float64 `json:"counters,omitempty"`
}

// ledger is the subset of a BENCH_*.json document the gate reads: the
// section keyed by benchmark name.
type ledger struct {
	Benchmarks map[string]target `json:"benchmarks"`
}

// resolve picks the gate level for one benchmark name.
func (l ledger) resolve(name string) (target, bool) {
	t, ok := l.Benchmarks[name]
	return t, ok && t.NsPerOp > 0
}

// measurement is one parsed benchmark result: min ns/op across
// repetitions, the allocs/op of that same fastest repetition (-1 when
// the output had no -benchmem columns), the number of repetitions, and
// every repetition's value of each other metric, by unit.
type measurement struct {
	NsPerOp     float64
	AllocsPerOp float64
	Reps        int
	Counters    map[string][]float64
}

// parseBench extracts per-benchmark measurements from `go test -bench`
// output. Benchmark lines look like
//
//	BenchmarkPlanBatch-8   3   98861041 ns/op   32.00 plans/req  33411216 B/op  648282 allocs/op
//
// value-unit pairs after the iteration count; the -8 GOMAXPROCS suffix is
// stripped, and multiple repetitions (from -count) collapse to the one
// with minimum ns/op, keeping every repetition's other metrics.
func parseBench(r io.Reader) (map[string]measurement, error) {
	best := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		vals := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
				vals[fields[i+1]] = v
			}
		}
		ns, ok := vals["ns/op"]
		if !ok {
			continue
		}
		allocs, ok := vals["allocs/op"]
		if !ok {
			allocs = -1
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		cur, seen := best[name]
		if !seen {
			cur.Counters = make(map[string][]float64)
		}
		cur.Reps++
		for unit, v := range vals {
			if unit != "ns/op" && unit != "B/op" && unit != "allocs/op" {
				cur.Counters[unit] = append(cur.Counters[unit], v)
			}
		}
		if !seen || ns < cur.NsPerOp {
			cur.NsPerOp, cur.AllocsPerOp = ns, allocs
		}
		best[name] = cur
	}
	return best, sc.Err()
}

// check gates one measured value against one ledger level; returns true
// on regression and prints the verdict line either way.
func check(name, what string, got, want, maxRegress float64) bool {
	limit := want * (1 + maxRegress)
	delta := (got - want) / want * 100
	verdict := "ok"
	regressed := got > limit
	if regressed {
		verdict = "REGRESSION"
	}
	fmt.Printf("%-28s measured %14.0f %-9s ledger %14.0f  %+6.1f%%  (limit %+.0f%%)  %s\n",
		name, got, what, want, delta, maxRegress*100, verdict)
	return regressed
}

// checkCounter gates one work counter exactly: each of the reps
// repetitions must report it and equal the ledger's level. It returns
// true on a mismatch and prints the verdict line either way.
func checkCounter(name, unit string, got []float64, reps int, want float64) bool {
	verdict := "ok"
	bad := len(got) == 0 || len(got) != reps
	for _, v := range got {
		if v != want {
			bad = true
		}
	}
	if bad {
		verdict = "MISMATCH"
	}
	fmt.Printf("%-28s measured %v %-12s ledger %v exactly  %s\n", name, got, unit, want, verdict)
	return bad
}

// checkCounters gates every work counter the target records, in unit
// order; it returns true when any mismatches. A unit the benchmark never
// reports fails like a missing one.
func checkCounters(name string, want target, got measurement) bool {
	units := make([]string, 0, len(want.Counters))
	for unit := range want.Counters {
		units = append(units, unit)
	}
	sort.Strings(units)
	bad := false
	for _, unit := range units {
		if checkCounter(name, unit, got.Counters[unit], got.Reps, want.Counters[unit]) {
			bad = true
		}
	}
	return bad
}

func main() {
	g := gates{}
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs the ledger")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "allowed fractional allocs/op regression vs the ledger (for ledger entries that record allocs_per_op)")
	flag.Var(g, "gate", "BenchmarkName=ledger.json (repeatable; default gates Table3, ScenarioImpaired, PlanBatch, the four fleet benchmarks, SearchCold, and WarmBoot)")
	input := flag.String("input", "-", "bench output file (- = stdin)")
	flag.Parse()
	if len(g) == 0 {
		g = gates{
			"BenchmarkTable3":            "BENCH_baseline.json",
			"BenchmarkScenarioImpaired":  "BENCH_baseline.json",
			"BenchmarkPlanBatch":         "BENCH_serve.json",
			"BenchmarkFleetSchedule":     "BENCH_fleet.json",
			"BenchmarkFleetScheduleWarm": "BENCH_fleet.json",
			"BenchmarkFleetMutate":       "BENCH_fleet.json",
			"BenchmarkFleetMutateLarge":  "BENCH_fleet.json",
			"BenchmarkSearchCold":        "BENCH_coldpath.json",
			"BenchmarkWarmBoot":          "BENCH_coldpath.json",
		}
	}

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "holmes-benchgate:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "holmes-benchgate:", err)
		os.Exit(2)
	}

	failed := false
	for name, path := range g {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "holmes-benchgate:", err)
			os.Exit(2)
		}
		var led ledger
		if err := json.Unmarshal(raw, &led); err != nil {
			fmt.Fprintf(os.Stderr, "holmes-benchgate: %s: %v\n", path, err)
			os.Exit(2)
		}
		want, ok := led.resolve(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "holmes-benchgate: %s has no usable level for %s\n", path, name)
			os.Exit(2)
		}
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "holmes-benchgate: %s not found in bench output\n", name)
			failed = true
			continue
		}
		if check(name, "ns/op", got.NsPerOp, want.NsPerOp, *maxRegress) {
			failed = true
		}
		if want.AllocsPerOp > 0 {
			if got.AllocsPerOp < 0 {
				fmt.Fprintf(os.Stderr, "holmes-benchgate: %s gates allocs/op but the bench output has none (run with -benchmem)\n", name)
				failed = true
			} else if check(name, "allocs/op", got.AllocsPerOp, want.AllocsPerOp, *maxAllocRegress) {
				failed = true
			}
		}
		if checkCounters(name, want, got) {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "holmes-benchgate: perf gate failed")
		os.Exit(1)
	}
}
