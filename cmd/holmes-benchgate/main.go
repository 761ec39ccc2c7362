// Command holmes-benchgate is the CI perf-regression gate: it parses
// `go test -bench` output and compares each benchmark the repo's ledgers
// name against its committed level, exiting non-zero when one regressed
// by more than the allowed fraction. ns/op is taken at the fastest
// repetition (the minimum is the least noisy location estimate on shared
// runners); allocs/op, where the ledger records it (requires -benchmem
// output), at the median of the repetitions, which is how the ledgers
// record it — a concurrency refactor can't silently trade speed for
// garbage.
//
// Usage:
//
//	go test -run '^$' -bench '^(BenchmarkTable3|BenchmarkPlanBatch)$' -benchmem -count 5 . | tee bench.txt
//	holmes-benchgate -max-regress 0.25 -max-alloc-regress 0.01 < bench.txt
//
// Ledgers are the BENCH_*.json documents in the working directory. Each
// gates its benchmarks through a `benchmarks` section mapping benchmark
// name to {ns_per_op, allocs_per_op}: the level the recording change
// measured, which later changes must hold. Every entry of every ledger
// is gated, in name order, so the input must hold every one of them. An
// entry with no usable level, or a benchmark two ledgers name, is an
// error (exit 2).
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
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

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

// ledgerLevels reads every BENCH_*.json ledger in dir and returns the
// gate level of each benchmark their `benchmarks` maps name. An entry
// without a usable level, or a benchmark two ledgers name, is an error.
func ledgerLevels(dir string) (map[string]target, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json ledger in %s", dir)
	}
	levels := make(map[string]target)
	owner := make(map[string]string)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var led ledger
		if err := json.Unmarshal(raw, &led); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name := range led.Benchmarks {
			if prev, dup := owner[name]; dup {
				return nil, fmt.Errorf("%s is named by both %s and %s", name, prev, path)
			}
			want, ok := led.resolve(name)
			if !ok {
				return nil, fmt.Errorf("%s has no usable level for %s", path, name)
			}
			owner[name] = path
			levels[name] = want
		}
	}
	return levels, nil
}

// measurement is one parsed benchmark result: min ns/op across
// repetitions, the median allocs/op across them (-1 when the output had
// no -benchmem columns), the number of repetitions, and every
// repetition's value of each other metric, by unit.
type measurement struct {
	NsPerOp     float64
	AllocsPerOp float64
	Reps        int
	Counters    map[string][]float64
	allocs      []float64
}

// parseBench extracts per-benchmark measurements from `go test -bench`
// output. Benchmark lines look like
//
//	BenchmarkPlanBatch-8   3   98861041 ns/op   32.00 plans/req  33411216 B/op  648282 allocs/op
//
// value-unit pairs after the iteration count; the -8 GOMAXPROCS suffix is
// stripped, and multiple repetitions (from -count) collapse to the
// minimum ns/op and the median allocs/op, keeping every repetition's
// other metrics.
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
		if allocs, ok := vals["allocs/op"]; ok {
			cur.allocs = append(cur.allocs, allocs)
		}
		if !seen || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		best[name] = cur
	}
	for name, m := range best {
		m.AllocsPerOp = median(m.allocs)
		best[name] = m
	}
	return best, sc.Err()
}

// median returns the middle value of xs, the mean of the two middle
// values for an even count, and -1 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return -1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs the ledger")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25, "allowed fractional allocs/op regression vs the ledger (for ledger entries that record allocs_per_op)")
	input := flag.String("input", "-", "bench output file (- = stdin)")
	flag.Parse()

	levels, err := ledgerLevels(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "holmes-benchgate:", err)
		os.Exit(2)
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

	names := make([]string, 0, len(levels))
	for name := range levels {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "holmes-benchgate: %s not found in bench output\n", name)
			failed = true
			continue
		}
		want := levels[name]
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
