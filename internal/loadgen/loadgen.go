// Package loadgen is the closed-loop load generator behind
// cmd/holmes-loadgen and the API soak tests: a fixed set of workers
// fires planning traffic at a holmes-serve instance as fast as the
// server answers (closed loop — each worker has at most one request in
// flight), measuring client-side latency and classifying every response.
//
// The request corpus is the paper's own workload: every Table-3 cell
// (parameter group × environment × node count) as a /v1/plan body, the
// four environments as /v1/search bodies, scenario-carrying /v1/simulate
// bodies, and /v1/plan/batch envelopes built from distinct plan cells.
// Backpressure (429) is counted separately from errors: a load test that
// treats shed load as failure cannot distinguish an overloaded server
// from a broken one.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holmes/internal/experiments"
	"holmes/internal/metrics"
)

// Mix weights the request kinds; zero values fall back to the default
// plan-heavy mix (plan 8 : search 1 : simulate 2 : batch 1).
type Mix struct {
	Plan     int `json:"plan"`
	Search   int `json:"search"`
	Simulate int `json:"simulate"`
	Batch    int `json:"batch"`
}

func (m Mix) normalized() Mix {
	if m == (Mix{}) {
		return Mix{Plan: 8, Search: 1, Simulate: 2, Batch: 1}
	}
	clamp := func(v int) int {
		if v < 0 {
			return 0
		}
		return v
	}
	return Mix{Plan: clamp(m.Plan), Search: clamp(m.Search), Simulate: clamp(m.Simulate), Batch: clamp(m.Batch)}
}

// Options configures one load-generation run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the closed-loop client count (0 = 16).
	Workers int
	// Duration bounds the run's wall clock (0 = 10s).
	Duration time.Duration
	// Mix weights the request kinds.
	Mix Mix
	// BatchSize is the item count of each /v1/plan/batch request
	// (0 = 16, clamped to the distinct plan-cell corpus).
	BatchSize int
	// Seed makes the per-worker request sequences reproducible (0 = 1).
	Seed int64
	// WarmBoot replaces the timed random mix with one deterministic pass
	// over the whole corpus (every plan, search, and simulate body exactly
	// once, split across workers). Against a snapshot-warmed server this
	// measures cache effectiveness from boot: Duration and Mix are
	// ignored, and Result.Cache tells whether the answers came from cache.
	WarmBoot bool
	// Client overrides the HTTP client (nil = a default with generous
	// connection reuse for Workers connections).
	Client *http.Client
}

// CacheReport is the server's cache effectiveness over the run, scraped
// from GET /v1/stats when it finishes. Ratios are hits/(hits+misses);
// a run against a server that also took other traffic reports the
// server-lifetime ratios, not this run's alone.
type CacheReport struct {
	ResponseHits     uint64  `json:"response_hits"`
	ResponseMisses   uint64  `json:"response_misses"`
	ResponseHitRatio float64 `json:"response_hit_ratio"`
	PlanHits         uint64  `json:"plan_hits"`
	PlanMisses       uint64  `json:"plan_misses"`
	PlanHitRatio     float64 `json:"plan_hit_ratio"`
	// SearchMemoHits counts joint searches answered by the persisted
	// search-winner memo (one replay simulation instead of a full walk).
	SearchMemoHits uint64 `json:"search_memo_hits"`
}

// Result is the JSON report of a run.
type Result struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Workers        int     `json:"workers"`
	// Requests counts completed HTTP round trips; OK / Rejected / Errors
	// partition them (transport failures land in Errors).
	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	// Rejected counts 429 backpressure answers — load shed by design.
	Rejected uint64 `json:"rejected"`
	// Errors counts everything else: non-2xx non-429 statuses and
	// transport failures. A healthy run reports zero.
	Errors     uint64            `json:"errors"`
	FirstError string            `json:"first_error,omitempty"`
	ByKind     map[string]uint64 `json:"by_kind"`
	// Cache is the server's cache effectiveness scraped from /v1/stats at
	// the end of the run (nil when the scrape fails).
	Cache *CacheReport `json:"cache,omitempty"`
	// RequestsPerSec is completed round trips per second.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// PlanAnswersPerSec counts successful plan answers per second —
	// /v1/plan responses plus per-item successes of batch requests (the
	// acceptance metric: a batch of 16 is 16 plan answers, not 1).
	PlanAnswersPerSec float64 `json:"plan_answers_per_sec"`
	// Latency is the client-observed per-request latency histogram.
	Latency metrics.HistogramSnapshot `json:"latency_ms"`
}

// PlanBodies returns the Table-3 request corpus: one /v1/plan body per
// (parameter group, environment, node count) cell, t=1 and the paper's
// pipeline degree. The Table-1 cells are the group-1, 4-node subset.
func PlanBodies() []string {
	var bodies []string
	for group := 1; group <= 4; group++ {
		for _, env := range []string{"InfiniBand", "RoCE", "Ethernet", "Hybrid"} {
			for _, nodes := range []int{4, 6, 8} {
				p := experiments.PipelineSize(group, nodes)
				bodies = append(bodies, fmt.Sprintf(
					`{"env":%q,"nodes":%d,"model":{"group":%d},"tensor_size":1,"pipeline_size":%d}`,
					env, nodes, group, p))
			}
		}
	}
	return bodies
}

// SearchBodies returns the /v1/search corpus: the four environments at 4
// nodes, group 1 (search fans out internally, so a few distinct bodies
// already keep every worker busy).
func SearchBodies() []string {
	var bodies []string
	for _, env := range []string{"InfiniBand", "RoCE", "Ethernet", "Hybrid"} {
		bodies = append(bodies, fmt.Sprintf(`{"env":%q,"nodes":4,"model":{"group":1}}`, env))
	}
	return bodies
}

// SimulateBodies returns the /v1/simulate corpus: group-1 cells under a
// mid-iteration NIC degradation plus rate-capped background traffic —
// the scenario arm of the serving mix.
func SimulateBodies() []string {
	const scenario = `{"name":"loadgen","events":[{"kind":"degrade_nic","at":0.05,"node":0,"factor":0.6},{"kind":"background_traffic","at":0.1,"src":0,"dst":1,"gbps":40,"until":0.5}]}`
	var bodies []string
	for _, env := range []string{"InfiniBand", "RoCE", "Ethernet", "Hybrid"} {
		for _, nodes := range []int{4, 8} {
			p := experiments.PipelineSize(1, nodes)
			bodies = append(bodies, fmt.Sprintf(
				`{"env":%q,"nodes":%d,"model":{"group":1},"tensor_size":1,"pipeline_size":%d,"scenario":%s}`,
				env, nodes, p, scenario))
		}
	}
	return bodies
}

// BatchBody builds a /v1/plan/batch envelope of size distinct plan
// items, offset into the plan corpus (so different calls exercise
// different cells).
func BatchBody(size, offset int) string {
	plans := PlanBodies()
	if size <= 0 {
		size = 16
	}
	if size > len(plans) {
		size = len(plans)
	}
	items := make([]string, size)
	for i := 0; i < size; i++ {
		items[i] = fmt.Sprintf(`{"op":"plan","config":%s}`, plans[(offset+i)%len(plans)])
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// Run drives the closed loop until Duration elapses and reports the
// aggregate. It returns an error only for unusable options; server-side
// failures are data (Result.Errors), not a reason to abort the run.
func Run(o Options) (Result, error) {
	if o.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: BaseURL required")
	}
	base := strings.TrimRight(o.BaseURL, "/")
	if o.Workers <= 0 {
		o.Workers = 16
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	mix := o.Mix.normalized()
	total := mix.Plan + mix.Search + mix.Simulate + mix.Batch
	if total == 0 {
		return Result{}, fmt.Errorf("loadgen: mix selects nothing")
	}
	client := o.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        o.Workers * 2,
			MaxIdleConnsPerHost: o.Workers * 2,
		}}
	}

	plans, searches, sims := PlanBodies(), SearchBodies(), SimulateBodies()
	// Pre-render every batch rotation: building bodies inside the closed
	// loop would charge client-side formatting to the measured rates.
	batches := make([]string, len(plans))
	for i := range batches {
		batches[i] = BatchBody(o.BatchSize, i)
	}
	var (
		hist        metrics.Histogram
		requests    atomic.Uint64
		okCount     atomic.Uint64
		rejected    atomic.Uint64
		errCount    atomic.Uint64
		planAnswers atomic.Uint64
		kindCounts  sync.Map // string -> *atomic.Uint64
		firstErr    atomic.Value
	)
	countKind := func(kind string) {
		v, _ := kindCounts.LoadOrStore(kind, new(atomic.Uint64))
		v.(*atomic.Uint64).Add(1)
	}

	// fire posts one request and classifies the answer. It reports whether
	// the request landed (anything but a 429 shed).
	fire := func(kind, path, body string) bool {
		t0 := time.Now()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			requests.Add(1)
			errCount.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Sprintf("%s: %v", kind, err))
			return true
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		hist.Observe(time.Since(t0))
		requests.Add(1)
		countKind(kind)
		switch {
		case resp.StatusCode == http.StatusOK:
			okCount.Add(1)
			switch kind {
			case "plan":
				planAnswers.Add(1)
			case "batch":
				var br struct {
					Count  int `json:"count"`
					Errors int `json:"errors"`
				}
				if json.Unmarshal(payload, &br) == nil && br.Count > br.Errors {
					planAnswers.Add(uint64(br.Count - br.Errors))
				}
			}
			return true
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
			// Shed load: yield briefly instead of hammering the
			// full Retry-After (a closed-loop generator that
			// sleeps 1s per 429 measures its own sleep).
			time.Sleep(5 * time.Millisecond)
			return false
		default:
			errCount.Add(1)
			firstErr.CompareAndSwap(nil, fmt.Sprintf("%s: status %d: %s", kind, resp.StatusCode, truncate(payload, 200)))
			return true
		}
	}

	deadline := time.Now().Add(o.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o.WarmBoot {
				// One deterministic pass: worker w takes corpus items
				// w, w+Workers, ... A 429 is retried (bounded) because
				// warm-boot measures cache coverage — every item must land.
				type item struct{ kind, path, body string }
				var corpus []item
				for _, b := range plans {
					corpus = append(corpus, item{"plan", "/v1/plan", b})
				}
				for _, b := range searches {
					corpus = append(corpus, item{"search", "/v1/search", b})
				}
				for _, b := range sims {
					corpus = append(corpus, item{"simulate", "/v1/simulate", b})
				}
				for i := w; i < len(corpus); i += o.Workers {
					it := corpus[i]
					for attempt := 0; attempt < 50; attempt++ {
						if fire(it.kind, it.path, it.body) {
							break
						}
					}
				}
				return
			}
			rng := rand.New(rand.NewSource(o.Seed + int64(w)))
			for time.Now().Before(deadline) {
				kind, path, body := "plan", "/v1/plan", ""
				switch pick := rng.Intn(total); {
				case pick < mix.Plan:
					body = plans[rng.Intn(len(plans))]
				case pick < mix.Plan+mix.Search:
					kind, path = "search", "/v1/search"
					body = searches[rng.Intn(len(searches))]
				case pick < mix.Plan+mix.Search+mix.Simulate:
					kind, path = "simulate", "/v1/simulate"
					body = sims[rng.Intn(len(sims))]
				default:
					kind, path = "batch", "/v1/plan/batch"
					body = batches[rng.Intn(len(batches))]
				}
				fire(kind, path, body)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := Result{
		ElapsedSeconds: elapsed,
		Workers:        o.Workers,
		Requests:       requests.Load(),
		OK:             okCount.Load(),
		Rejected:       rejected.Load(),
		Errors:         errCount.Load(),
		ByKind:         map[string]uint64{},
		Latency:        hist.Snapshot(),
	}
	if fe, ok := firstErr.Load().(string); ok {
		res.FirstError = fe
	}
	kindCounts.Range(func(k, v any) bool {
		res.ByKind[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	if elapsed > 0 {
		res.RequestsPerSec = float64(res.Requests) / elapsed
		res.PlanAnswersPerSec = float64(planAnswers.Load()) / elapsed
	}
	res.Cache = scrapeCache(client, base)
	return res, nil
}

// scrapeCache reads the server's cache counters from GET /v1/stats. The
// scrape is best-effort observability — a server without the endpoint
// (or an unreachable one at teardown) yields nil, not a failed run.
func scrapeCache(client *http.Client, base string) *CacheReport {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var stats struct {
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"plan_cache"`
		Responses struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"responses"`
		Search struct {
			MemoHits uint64 `json:"memo_hits"`
		} `json:"search"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil
	}
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	return &CacheReport{
		ResponseHits:     stats.Responses.Hits,
		ResponseMisses:   stats.Responses.Misses,
		ResponseHitRatio: ratio(stats.Responses.Hits, stats.Responses.Misses),
		PlanHits:         stats.PlanCache.Hits,
		PlanMisses:       stats.PlanCache.Misses,
		PlanHitRatio:     ratio(stats.PlanCache.Hits, stats.PlanCache.Misses),
		SearchMemoHits:   stats.Search.MemoHits,
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
