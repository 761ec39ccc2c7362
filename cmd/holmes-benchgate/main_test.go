package main

import (
	"encoding/json"
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
	// Allocs ride with the fastest repetition.
	if got["BenchmarkPlanBatch"].AllocsPerOp != 640000 {
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

func TestGateFlagParsing(t *testing.T) {
	g := gates{}
	if err := g.Set("BenchmarkTable3=BENCH_baseline.json"); err != nil {
		t.Fatal(err)
	}
	if g["BenchmarkTable3"] != "BENCH_baseline.json" {
		t.Fatalf("gate map: %v", g)
	}
	for _, bad := range []string{"", "NoEquals", "=x", "Name="} {
		if err := g.Set(bad); err == nil {
			t.Errorf("accepted bad gate %q", bad)
		}
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
	// Every repetition's counters, in order; the level stays the fastest.
	if !reflect.DeepEqual(sc.Counters["aborted/op"], []float64{213, 214}) ||
		!reflect.DeepEqual(sc.Counters["pruned/op"], []float64{462, 462}) ||
		!reflect.DeepEqual(sc.Counters["simulated/op"], []float64{73, 72}) {
		t.Fatalf("SearchCold counters: %v", sc.Counters)
	}
	if sc.NsPerOp != 584121094 || sc.AllocsPerOp != 277789 || sc.Reps != 2 {
		t.Fatalf("SearchCold level: %+v", sc)
	}
	// events/op is reported, not gated: it is not collected.
	if _, ok := sc.Counters["events/op"]; ok {
		t.Fatalf("collected events/op: %v", sc.Counters)
	}
	if n := len(got["BenchmarkWarmBoot"].Counters); n != 0 {
		t.Fatalf("WarmBoot reports no counters, parsed %v", got["BenchmarkWarmBoot"].Counters)
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
		"BenchmarkA": {"ns_per_op": 42, "pruned_per_op": 462, "aborted_per_op": 0},
		"BenchmarkB": {"ns_per_op": 42}
	}}`
	var led ledger
	if err := json.Unmarshal([]byte(raw), &led); err != nil {
		t.Fatal(err)
	}
	a, _ := led.resolve("BenchmarkA")
	want := map[string]float64{"pruned/op": 462, "aborted/op": 0}
	for _, c := range a.counters() {
		w, recorded := want[c.unit]
		if recorded != (c.want != nil) || (recorded && *c.want != w) {
			t.Fatalf("BenchmarkA %s: ledger level %v, want recorded=%v %v", c.unit, c.want, recorded, w)
		}
	}
	b, _ := led.resolve("BenchmarkB")
	for _, c := range b.counters() {
		if c.want != nil {
			t.Fatalf("BenchmarkB gates %s without recording it", c.unit)
		}
	}
}
