package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"holmes/internal/engine"
	"holmes/internal/loadgen"
	"holmes/internal/serve"
)

// soakBudget bounds the hammering phase's wall clock. The suite runs
// under -race in CI, so the budget is modest; -short halves it again.
func soakBudget() time.Duration {
	if testing.Short() {
		return 1 * time.Second
	}
	return 2 * time.Second
}

// TestSoakServer is the serving layer's load test: 32 concurrent
// closed-loop clients hammer a server with the full request mix for a
// bounded wall-clock budget (run under -race in CI). It asserts
//
//   - zero non-backpressure errors — every response is 200 or 429,
//   - batch answers bit-identical to sequential single-request answers
//     after the storm,
//   - the engine's LRU cache statistics stay monotone and sane while
//     being sampled mid-storm.
func TestSoakServer(t *testing.T) {
	pool := serve.New(serve.Config{
		MaxInFlight: 32,
		MaxQueue:    512,
	})
	srv := newPoolServer(t, pool)

	// Sample /healthz concurrently with the storm: cache counters must be
	// monotone non-decreasing and size bounded by capacity at every
	// observation.
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	var samples []engine.CacheStats
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(50 * time.Millisecond):
			}
			var h HealthResponse
			resp, err := http.Get(srv.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz during soak: %v", err)
				return
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				t.Errorf("healthz decode during soak: %v", err)
				return
			}
			samples = append(samples, h.Cache)
		}
	}()

	res, err := loadgen.Run(loadgen.Options{
		BaseURL:   srv.URL,
		Workers:   32,
		Duration:  soakBudget(),
		Mix:       loadgen.Mix{Plan: 8, Search: 1, Simulate: 2, Batch: 1},
		BatchSize: 8,
		Seed:      42,
	})
	close(stopSampling)
	sampling.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.OK == 0 {
		t.Fatalf("soak completed no successful requests: %+v", res)
	}
	// The hard invariant: nothing but 200s and shed load.
	if res.Errors != 0 {
		t.Fatalf("%d non-backpressure errors during soak; first: %s", res.Errors, res.FirstError)
	}
	t.Logf("soak: %d requests (%.0f req/s, %.0f plan answers/s, %d rejected), p50=%.1fms p99=%.1fms",
		res.Requests, res.RequestsPerSec, res.PlanAnswersPerSec, res.Rejected, res.Latency.P50Ms, res.Latency.P99Ms)

	if len(samples) == 0 {
		t.Fatal("no cache samples collected during soak")
	}
	for i, s := range samples {
		if s.Cap > 0 && s.Size > s.Cap {
			t.Fatalf("sample %d: cache size %d exceeds cap %d", i, s.Size, s.Cap)
		}
		if i == 0 {
			continue
		}
		prev := samples[i-1]
		if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Evictions < prev.Evictions {
			t.Fatalf("cache counters regressed between samples %d and %d: %+v -> %+v", i-1, i, prev, s)
		}
	}
	// The corpus repeats a small working set, so the storm must have
	// produced cache hits.
	last := samples[len(samples)-1]
	if last.Hits == 0 {
		t.Fatalf("soak never hit the communicator cache: %+v", last)
	}

	// Differential arm: after the storm, a batch over a spread of plan
	// cells must answer bit-identically to sequential single requests.
	plans := loadgen.PlanBodies()
	var items []string
	for i := 0; i < len(plans); i += 6 {
		items = append(items, fmt.Sprintf(`{"op":"plan","config":%s}`, plans[i]))
	}
	code, raw := post(t, srv, "/v1/plan/batch", `{"items":[`+strings.Join(items, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("post-soak batch: %d %s", code, raw)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Errors != 0 || len(br.Results) != len(items) {
		t.Fatalf("post-soak batch failed items: %s", raw)
	}
	for i := 0; i < len(plans); i += 6 {
		scode, sraw := post(t, srv, "/v1/plan", plans[i])
		if scode != http.StatusOK {
			t.Fatalf("post-soak single plan %d: %d %s", i, scode, sraw)
		}
		if got, want := canon(t, br.Results[i/6].Plan), canon(t, sraw); got != want {
			t.Fatalf("cell %d: batch answer differs from single:\nbatch:  %s\nsingle: %s", i, got, want)
		}
	}
}
