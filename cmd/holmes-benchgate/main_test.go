package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: holmes
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTable3 	       1	 193260052 ns/op	        48.00 cells
BenchmarkTable3 	       1	 210000000 ns/op	        48.00 cells
BenchmarkPlanBatch-8 	       3	  98861041 ns/op	        32.00 plans/req	33411216 B/op	  648282 allocs/op
BenchmarkPlanBatch-8 	       3	  95000000 ns/op	        32.00 plans/req	33411216 B/op	  640000 allocs/op
PASS
ok  	holmes	1.222s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Minimum ns/op across repetitions, GOMAXPROCS suffix stripped.
	if got["BenchmarkTable3"].NsPerOp != 193260052 {
		t.Fatalf("Table3 min: %v", got["BenchmarkTable3"])
	}
	// No -benchmem columns -> allocs not measured.
	if got["BenchmarkTable3"].AllocsPerOp != -1 {
		t.Fatalf("Table3 allocs: %v", got["BenchmarkTable3"])
	}
	if got["BenchmarkPlanBatch"].NsPerOp != 95000000 {
		t.Fatalf("PlanBatch min: %v", got["BenchmarkPlanBatch"])
	}
	// Allocs are the median of the repetitions (the mean of the middle
	// two for an even count), as the ledgers record them.
	if got["BenchmarkPlanBatch"].AllocsPerOp != 644141 {
		t.Fatalf("PlanBatch allocs: %v", got["BenchmarkPlanBatch"])
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
}

func TestParseBenchIgnoresNoise(t *testing.T) {
	got, err := parseBench(strings.NewReader("FAIL\nsomething Benchmark-ish\nBenchmarkX 1 notanumber ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed noise as benchmarks: %v", got)
	}
}

// TestAllocsGateTakesMedian: a process's first repetition can allocate
// a few percent more than the rest, and it is sometimes the fastest. The
// allocation gate must hold the median, which the ledgers record, not
// that repetition.
func TestAllocsGateTakesMedian(t *testing.T) {
	const out = `BenchmarkPlanBatch-2 	       1	  26300000 ns/op	        32.00 plans/req	33411216 B/op	   26486 allocs/op
BenchmarkPlanBatch-2 	       1	  27600000 ns/op	        32.00 plans/req	33411216 B/op	   25714 allocs/op
BenchmarkPlanBatch-2 	       1	  29000000 ns/op	        32.00 plans/req	33411216 B/op	   25713 allocs/op
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkPlanBatch"]
	if m.NsPerOp != 26300000 {
		t.Fatalf("ns/op must stay the fastest repetition: %+v", m)
	}
	if check("BenchmarkPlanBatch", "allocs/op", m.AllocsPerOp, 25714, 0.01) {
		t.Fatalf("a fastest repetition 3%% above the other two failed a 1%% gate at their level: %+v", m)
	}
}

func TestLedgerLevels(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_a.json", `{"benchmarks": {"BenchmarkA": {"ns_per_op": 42, "allocs_per_op": 7}}}`)
	write("BENCH_b.json", `{"benchmarks": {"BenchmarkB": {"ns_per_op": 9, "counters": {"searches/op": 0.5}}}}`)
	write("other.json", `{"benchmarks": {"BenchmarkA": {"ns_per_op": 1}}}`)
	levels, err := ledgerLevels(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]target{
		"BenchmarkA": {NsPerOp: 42, AllocsPerOp: 7},
		"BenchmarkB": {NsPerOp: 9, Counters: map[string]float64{"searches/op": 0.5}},
	}
	if !reflect.DeepEqual(levels, want) {
		t.Fatalf("levels %+v, want %+v", levels, want)
	}

	// A benchmark two ledgers name is an error, and so is an entry with
	// no usable level.
	write("BENCH_c.json", `{"benchmarks": {"BenchmarkA": {"ns_per_op": 1}}}`)
	if _, err := ledgerLevels(dir); err == nil || !strings.Contains(err.Error(), "named by both") {
		t.Fatalf("duplicate benchmark: %v", err)
	}
	write("BENCH_c.json", `{"benchmarks": {"BenchmarkC": {"ns_per_op": 0}}}`)
	if _, err := ledgerLevels(dir); err == nil || !strings.Contains(err.Error(), "no usable level") {
		t.Fatalf("unusable level: %v", err)
	}
	if _, err := ledgerLevels(t.TempDir()); err == nil {
		t.Fatal("a directory with no ledger must be an error")
	}

	// The repo's own ledgers load.
	if levels, err := ledgerLevels("../.."); err != nil || len(levels) == 0 {
		t.Fatalf("repo ledgers: %d levels, %v", len(levels), err)
	}
}

func TestLedgerResolve(t *testing.T) {
	raw := `{
		"after": {"ns_per_op": 100},
		"benchmarks": {
			"BenchmarkA": {"ns_per_op": 42, "allocs_per_op": 7},
			"BenchmarkEmpty": {"ns_per_op": 0}
		}
	}`
	var led ledger
	if err := json.Unmarshal([]byte(raw), &led); err != nil {
		t.Fatal(err)
	}
	if got, ok := led.resolve("BenchmarkA"); !ok || got.NsPerOp != 42 || got.AllocsPerOp != 7 {
		t.Fatalf("BenchmarkA: %+v %v", got, ok)
	}
	// A name with no entry does not resolve, even with a top-level after
	// in the document: the gate has no fallback level.
	if got, ok := led.resolve("BenchmarkB"); ok {
		t.Fatalf("BenchmarkB resolved to %+v", got)
	}
	// Nor does an entry without a usable level (ns_per_op 0).
	if got, ok := led.resolve("BenchmarkEmpty"); ok {
		t.Fatalf("BenchmarkEmpty resolved to %+v", got)
	}
	var none ledger
	if _, ok := none.resolve("BenchmarkA"); ok {
		t.Fatal("empty ledger resolved a level")
	}
}

func TestCheckVerdicts(t *testing.T) {
	// Within the limit: 120 vs 100 at 25% is allowed.
	if check("BenchmarkX", "ns/op", 120, 100, 0.25) {
		t.Fatal("120 vs 100 at 25% must pass")
	}
	// Beyond the limit.
	if !check("BenchmarkX", "ns/op", 130, 100, 0.25) {
		t.Fatal("130 vs 100 at 25% must fail")
	}
	// Improvements always pass.
	if check("BenchmarkX", "allocs/op", 10, 100, 0.25) {
		t.Fatal("an improvement must pass")
	}
}

const counterSample = `BenchmarkSearchCold-2 	       1	 584121094 ns/op	       213.0 aborted/op	   2324990 events/op	       462.0 pruned/op	        73.00 simulated/op	36948544 B/op	  277789 allocs/op
BenchmarkSearchCold-2 	       1	 646019716 ns/op	       214.0 aborted/op	   2311358 events/op	       462.0 pruned/op	        72.00 simulated/op	36944000 B/op	  277817 allocs/op
BenchmarkWarmBoot-2 	       5	   4746826 ns/op	      1234 snapshot-bytes	   100.0 cache-hit-%	  12029 allocs/op
`

func TestParseBenchCounters(t *testing.T) {
	got, err := parseBench(strings.NewReader(counterSample))
	if err != nil {
		t.Fatal(err)
	}
	sc := got["BenchmarkSearchCold"]
	// Every repetition's metrics, in order, by unit; ns/op stays the
	// fastest and allocs/op is the median.
	want := map[string][]float64{
		"aborted/op":   {213, 214},
		"events/op":    {2324990, 2311358},
		"pruned/op":    {462, 462},
		"simulated/op": {73, 72},
	}
	if !reflect.DeepEqual(sc.Counters, want) {
		t.Fatalf("SearchCold counters: %v, want %v", sc.Counters, want)
	}
	if sc.NsPerOp != 584121094 || sc.AllocsPerOp != 277803 || sc.Reps != 2 {
		t.Fatalf("SearchCold level: %+v", sc)
	}
	// ns/op, B/op and allocs/op are levels, not counters.
	wb := got["BenchmarkWarmBoot"].Counters
	if !reflect.DeepEqual(wb, map[string][]float64{"snapshot-bytes": {1234}, "cache-hit-%": {100}}) {
		t.Fatalf("WarmBoot counters: %v", wb)
	}
}

func TestCheckCounter(t *testing.T) {
	// A match on every repetition passes.
	if checkCounter("BenchmarkX", "pruned/op", []float64{462, 462, 462}, 3, 462) {
		t.Fatal("462 x3 vs 462 must pass")
	}
	// One repetition off by one fails, above or below.
	if !checkCounter("BenchmarkX", "aborted/op", []float64{213, 214, 213}, 3, 213) {
		t.Fatal("an off-by-one repetition must fail")
	}
	if !checkCounter("BenchmarkX", "simulated/op", []float64{72}, 1, 73) {
		t.Fatal("one fewer must fail")
	}
	// A recorded counter the output lacks fails, in every repetition or
	// in one.
	if !checkCounter("BenchmarkX", "simulated/op", nil, 3, 73) {
		t.Fatal("a missing metric must fail")
	}
	if !checkCounter("BenchmarkX", "simulated/op", []float64{73, 73}, 3, 73) {
		t.Fatal("a metric missing from one repetition must fail")
	}
}

func TestLedgerCounters(t *testing.T) {
	raw := `{"benchmarks": {
		"BenchmarkA": {"ns_per_op": 42, "counters": {"pruned/op": 462, "aborted/op": 0}},
		"BenchmarkB": {"ns_per_op": 42}
	}}`
	var led ledger
	if err := json.Unmarshal([]byte(raw), &led); err != nil {
		t.Fatal(err)
	}
	a, _ := led.resolve("BenchmarkA")
	if want := map[string]float64{"pruned/op": 462, "aborted/op": 0}; !reflect.DeepEqual(a.Counters, want) {
		t.Fatalf("BenchmarkA counters: %v, want %v", a.Counters, want)
	}
	b, _ := led.resolve("BenchmarkB")
	if len(b.Counters) != 0 {
		t.Fatalf("BenchmarkB gates %v without recording them", b.Counters)
	}
}

const fleetSample = `BenchmarkFleetMutate-2 	      12	   7475039 ns/op	         4.000 polls/op	         0.5000 searches/op	  525204 B/op	    4797 allocs/op
BenchmarkFleetMutate-2 	      12	   6976132 ns/op	         4.000 polls/op	         0.5000 searches/op	  525552 B/op	    4809 allocs/op
BenchmarkFleetMutate-2 	      12	   7497918 ns/op	         4.000 polls/op	         0.5833 searches/op	  525670 B/op	    4802 allocs/op
`

// TestCheckCounters gates a parsed benchmark against a ledger's counters
// map: a recorded unit every repetition reports at the level passes; one
// repetition off, a unit one repetition lacks, and a unit the benchmark
// never reports each fail; a reported metric the map does not name is
// not gated.
func TestCheckCounters(t *testing.T) {
	got, err := parseBench(strings.NewReader(fleetSample))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkFleetMutate"]
	for _, c := range []struct {
		name     string
		counters map[string]float64
		bad      bool
	}{
		{"match", map[string]float64{"polls/op": 4}, false},
		{"none recorded", nil, false},
		{"off by one repetition", map[string]float64{"polls/op": 4, "searches/op": 0.5}, true},
		{"unknown unit", map[string]float64{"polls/op": 4, "events/op": 0}, true},
	} {
		if bad := checkCounters("BenchmarkFleetMutate", target{NsPerOp: 1, Counters: c.counters}, m); bad != c.bad {
			t.Errorf("%s: mismatch=%v, want %v", c.name, bad, c.bad)
		}
	}
	lacking := m
	lacking.Counters = map[string][]float64{"polls/op": {4, 4}}
	if !checkCounters("BenchmarkFleetMutate", target{NsPerOp: 1, Counters: map[string]float64{"polls/op": 4}}, lacking) {
		t.Error("a unit one repetition lacks must fail")
	}
}
