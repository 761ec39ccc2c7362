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
//	go test -run '^$' -bench '^(BenchmarkTable3|BenchmarkPlanBatch|BenchmarkFleetSchedule|BenchmarkFleetScheduleWarm|BenchmarkFleetMutate)$' -benchmem -count 3 . | tee bench.txt
//	holmes-benchgate -max-regress 0.25 < bench.txt
//	holmes-benchgate -gate BenchmarkTable3=BENCH_baseline.json -gate BenchmarkPlanBatch=BENCH_serve.json < bench.txt
//
// Ledgers are the repo's BENCH_*.json documents. Each gates its
// benchmarks through a `benchmarks` section mapping benchmark name to
// {ns_per_op, allocs_per_op}: the level the recording change measured,
// which later changes must hold. A gated name with no usable entry there
// is an error (exit 2).
//
// Work counters are gated exactly. When an entry records
// pruned_per_op, aborted_per_op or simulated_per_op, every repetition's
// pruned/op, aborted/op or simulated/op must equal it, and a recorded
// counter the output lacks fails: the counts are deterministic, so any
// difference is a change in the work done, never host noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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
// records it (0 = not gated), and each work counter it records (nil =
// not gated).
type target struct {
	NsPerOp        float64  `json:"ns_per_op"`
	AllocsPerOp    float64  `json:"allocs_per_op,omitempty"`
	PrunedPerOp    *float64 `json:"pruned_per_op,omitempty"`
	AbortedPerOp   *float64 `json:"aborted_per_op,omitempty"`
	SimulatedPerOp *float64 `json:"simulated_per_op,omitempty"`
}

// counter is one work counter the gate holds exactly: the unit the
// benchmark reports it in, and the level the target records (nil when
// it records none).
type counter struct {
	unit string
	want *float64
}

// counters lists the target's work counters.
func (t target) counters() []counter {
	return []counter{
		{"pruned/op", t.PrunedPerOp},
		{"aborted/op", t.AbortedPerOp},
		{"simulated/op", t.SimulatedPerOp},
	}
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
// every repetition's work counters by unit.
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
// the -8 GOMAXPROCS suffix is stripped, and multiple repetitions (from
// -count) collapse to the one with minimum ns/op, keeping every
// repetition's counters.
func parseBench(r io.Reader) (map[string]measurement, error) {
	best := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		ns, ok := metric(fields, "ns/op")
		if !ok {
			continue
		}
		m := measurement{NsPerOp: ns, AllocsPerOp: -1}
		if allocs, ok := metric(fields, "allocs/op"); ok {
			m.AllocsPerOp = allocs
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
		for _, c := range (target{}).counters() {
			if v, ok := metric(fields, c.unit); ok {
				cur.Counters[c.unit] = append(cur.Counters[c.unit], v)
			}
		}
		if !seen || m.NsPerOp < cur.NsPerOp {
			cur.NsPerOp, cur.AllocsPerOp = m.NsPerOp, m.AllocsPerOp
		}
		best[name] = cur
	}
	return best, sc.Err()
}

// metric extracts the value preceding a unit token ("ns/op",
// "allocs/op") from one benchmark line.
func metric(fields []string, unit string) (float64, bool) {
	for i := 1; i < len(fields); i++ {
		if fields[i] != unit {
			continue
		}
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
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

func main() {
	g := gates{}
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs the ledger")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "allowed fractional allocs/op regression vs the ledger (for ledger entries that record allocs_per_op)")
	flag.Var(g, "gate", "BenchmarkName=ledger.json (repeatable; default gates Table3, ScenarioImpaired, PlanBatch, the three fleet benchmarks, SearchCold, and WarmBoot)")
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
		for _, c := range want.counters() {
			if c.want != nil && checkCounter(name, c.unit, got.Counters[c.unit], got.Reps, *c.want) {
				failed = true
			}
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "holmes-benchgate: perf gate failed")
		os.Exit(1)
	}
}
