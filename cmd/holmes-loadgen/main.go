// Command holmes-loadgen drives a holmes-serve instance with a
// closed-loop workload (each worker keeps exactly one request in flight)
// and reports client-observed throughput and latency as JSON — the
// operator-facing half of the serving soak tests.
//
// The request mix spans the paper's workload: Table-3 plan cells,
// joint searches, scenario simulates, and plan batches; see
// internal/loadgen for the corpus.
//
// Usage:
//
//	holmes-serve -addr :8080 &
//	holmes-loadgen -url http://127.0.0.1:8080 -workers 32 -duration 10s
//	holmes-loadgen -url http://127.0.0.1:8080 -mix plan=1 -duration 5s   # plan-only
//	holmes-loadgen -url http://127.0.0.1:8080 -mix plan=8,search=1,simulate=2,batch=1
//	holmes-loadgen -url http://127.0.0.1:8080 -warm-boot   # one pass over the corpus
//
// Output is one JSON document: request counts (ok / rejected / errors),
// requests/s, plan answers/s (batch items included), the latency
// histogram summary (p50/p95/p99/max in milliseconds), and the server's
// cache effectiveness (plan/response hit ratios scraped from /v1/stats
// at the end of the run). Exit status is 1 when any non-backpressure
// error occurred — 429s are shed load, not failures.
//
// -warm-boot replaces the timed random mix with one deterministic pass
// over the whole corpus; against a holmes-serve started from a
// -cache-snapshot file it shows how much of the corpus is answered from
// cache at boot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"holmes/internal/loadgen"
)

func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	if s == "" {
		return m, nil // zero value = loadgen's default mix
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix element %q (want kind=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch key {
		case "plan":
			m.Plan = w
		case "search":
			m.Search = w
		case "simulate":
			m.Simulate = w
		case "batch":
			m.Batch = w
		default:
			return m, fmt.Errorf("unknown mix kind %q (want plan, search, simulate, batch)", key)
		}
	}
	// An explicit spec must select something: an all-zero Mix would
	// silently fall back to the default mix and mislabel the run.
	if m == (loadgen.Mix{}) {
		return m, fmt.Errorf("mix %q selects nothing (all weights zero)", s)
	}
	return m, nil
}

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8080", "holmes-serve base URL")
		workers   = flag.Int("workers", 16, "closed-loop client count")
		duration  = flag.Duration("duration", 10*time.Second, "run length")
		mixSpec   = flag.String("mix", "", "request mix weights, e.g. plan=8,search=1,simulate=2,batch=1 (empty = that default)")
		batchSize = flag.Int("batch-size", 16, "items per /v1/plan/batch request")
		seed      = flag.Int64("seed", 1, "per-worker RNG seed (reproducible request sequences)")
		warmBoot  = flag.Bool("warm-boot", false, "one deterministic pass over the full corpus instead of a timed mix (measures cache effectiveness against a snapshot-warmed server; -duration and -mix are ignored)")
		out       = flag.String("out", "", "also write the JSON report to this file")
	)
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "holmes-loadgen:", err)
		os.Exit(2)
	}
	res, err := loadgen.Run(loadgen.Options{
		BaseURL:   *url,
		Workers:   *workers,
		Duration:  *duration,
		Mix:       mix,
		BatchSize: *batchSize,
		Seed:      *seed,
		WarmBoot:  *warmBoot,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "holmes-loadgen:", err)
		os.Exit(2)
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "holmes-loadgen:", err)
		os.Exit(2)
	}
	fmt.Println(string(doc))
	if *out != "" {
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "holmes-loadgen:", err)
			os.Exit(2)
		}
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "holmes-loadgen: %d non-backpressure errors (first: %s)\n", res.Errors, res.FirstError)
		os.Exit(1)
	}
}
