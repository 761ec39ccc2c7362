package main

import (
	"encoding/json"
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
