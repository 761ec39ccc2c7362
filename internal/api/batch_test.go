package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"holmes/internal/fleet"
	"holmes/internal/serve"
)

// rawBatchResponse mirrors BatchResponse with raw result payloads so
// tests can compare byte-level encodings against single-request answers.
type rawBatchResponse struct {
	Count   int `json:"count"`
	Errors  int `json:"errors"`
	Results []struct {
		Index    int             `json:"index"`
		Plan     json.RawMessage `json:"plan,omitempty"`
		Search   json.RawMessage `json:"search,omitempty"`
		Simulate json.RawMessage `json:"simulate,omitempty"`
		Error    string          `json:"error,omitempty"`
		Status   int             `json:"status,omitempty"`
	} `json:"results"`
}

const (
	batchPlanCfg     = `{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}`
	batchSearchCfg   = `{"env":"Hybrid","nodes":4,"model":{"group":1}}`
	batchSimulateCfg = `{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,"scenario":{"name":"b","events":[{"kind":"degrade_nic","at":0,"node":0,"factor":0.5}]}}`
	// Feasible config, infeasible degrees: a per-item 422.
	batchInfeasibleCfg = `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":3,"pipeline_size":2}`
)

func TestBatchHeterogeneousInputOrdered(t *testing.T) {
	srv := newTestServer(t)
	body := fmt.Sprintf(`{"items":[
		{"op":"plan","config":%s},
		{"op":"search","config":%s},
		{"op":"simulate","config":%s},
		{"op":"plan","config":%s}
	]}`, batchPlanCfg, batchSearchCfg, batchSimulateCfg, batchInfeasibleCfg)
	code, raw := post(t, srv, "/v1/plan/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 4 || len(br.Results) != 4 {
		t.Fatalf("count %d, %d results", br.Count, len(br.Results))
	}
	if br.Errors != 1 {
		t.Fatalf("errors %d, want 1 (the infeasible plan)", br.Errors)
	}
	for i, res := range br.Results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d: not input-ordered", i, res.Index)
		}
	}
	if br.Results[0].Plan == nil || br.Results[1].Search == nil || br.Results[2].Simulate == nil {
		t.Fatalf("payloads in wrong slots: %s", raw)
	}
	if br.Results[3].Error == "" || br.Results[3].Status != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible item: error=%q status=%d, want 422", br.Results[3].Error, br.Results[3].Status)
	}
	// A failed slot must not also carry a payload.
	if br.Results[3].Plan != nil {
		t.Fatal("failed item carries a plan payload")
	}
	var sim SimulateResponse
	if err := json.Unmarshal(br.Results[2].Simulate, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Scenario != "b" || sim.ScenarioEvents != 1 {
		t.Fatalf("batch simulate lost its scenario: %+v", sim)
	}
}

// canon compacts a JSON fragment so indented and nested encodings of the
// same marshal output compare byte-for-byte.
func canon(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBatchBitIdenticalToSingle is the batch half of the correctness
// claim: every batch slot must be byte-identical (modulo envelope
// indentation) to the answer of the corresponding single-request
// endpoint.
func TestBatchBitIdenticalToSingle(t *testing.T) {
	srv := newTestServer(t)
	items := []struct{ op, cfg, single string }{
		{"plan", batchPlanCfg, "/v1/plan"},
		{"plan", `{"env":"RoCE","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`, "/v1/plan"},
		{"search", batchSearchCfg, "/v1/search"},
		{"simulate", batchSimulateCfg, "/v1/simulate"},
	}
	var specs []string
	for _, it := range items {
		specs = append(specs, fmt.Sprintf(`{"op":%q,"config":%s}`, it.op, it.cfg))
	}
	code, raw := post(t, srv, "/v1/plan/batch", `{"items":[`+strings.Join(specs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, raw)
	}
	var br rawBatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		scode, sraw := post(t, srv, it.single, it.cfg)
		if scode != http.StatusOK {
			t.Fatalf("single %s status %d: %s", it.single, scode, sraw)
		}
		var slot json.RawMessage
		switch it.op {
		case "plan":
			slot = br.Results[i].Plan
		case "search":
			slot = br.Results[i].Search
		case "simulate":
			slot = br.Results[i].Simulate
		}
		if got, want := canon(t, slot), canon(t, sraw); got != want {
			t.Errorf("item %d (%s) differs from single request:\nbatch:  %s\nsingle: %s", i, it.op, got, want)
		}
	}
}

func TestBatchDuplicateItemsRejected(t *testing.T) {
	srv := newTestServer(t)
	body := fmt.Sprintf(`{"items":[{"op":"plan","config":%s},{"op":"search","config":%s},{"op":"plan","config":%s}]}`,
		batchPlanCfg, batchSearchCfg, batchPlanCfg)
	code, raw := post(t, srv, "/v1/plan/batch", body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, raw)
	}
	if !strings.Contains(string(raw), "items 0 and 2 are identical") {
		t.Fatalf("unexpected error: %s", raw)
	}
	// Same config under different ops is NOT a duplicate.
	body = fmt.Sprintf(`{"items":[{"op":"plan","config":%s},{"op":"simulate","config":%s}]}`, batchPlanCfg, batchPlanCfg)
	if code, raw = post(t, srv, "/v1/plan/batch", body); code != http.StatusOK {
		t.Fatalf("distinct-op duplicate rejected: %d %s", code, raw)
	}
}

func TestBackpressure429(t *testing.T) {
	pool := serve.New(serve.Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 3 * time.Second})
	srv := newPoolServer(t, pool)
	// Occupy the only admission slot; every planning request must now be
	// shed, deterministically.
	release, ok := pool.Admit(context.Background())
	if !ok {
		t.Fatal("could not occupy the admission slot")
	}
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 content-type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "saturated") {
		t.Fatalf("429 body: %s", b)
	}
	// Observability must keep answering while the pool is saturated.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", hr.StatusCode)
	}
	release()
	code, _ := post(t, srv, "/v1/plan", planBody)
	if code != http.StatusOK {
		t.Fatalf("after release: %d", code)
	}
	// The shed request is visible in the stats.
	var st StatsResponse
	getJSON(t, srv, "/v1/stats", &st)
	if st.Serve.Endpoints[epPlan].Rejected != 1 {
		t.Fatalf("rejected count: %+v", st.Serve.Endpoints[epPlan])
	}
}

func newPoolServer(t *testing.T, pool *serve.Pool) *httptest.Server {
	t.Helper()
	return startServer(t, NewServerPool(pool), "", fleet.NewFakeClock())
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestStatsSearchBlockCountsEvents: the search block of /v1/stats
// counts the cells of a search and the events its simulations fired.
func TestStatsSearchBlockCountsEvents(t *testing.T) {
	srv := newPoolServer(t, serve.New(serve.Config{}))
	if code, raw := post(t, srv, "/v1/search", batchSearchCfg); code != http.StatusOK {
		t.Fatalf("search: %d %s", code, raw)
	}
	var st StatsResponse
	getJSON(t, srv, "/v1/stats", &st)
	s := st.Search
	if s.Searches != 1 || s.Simulated == 0 || s.Events == 0 {
		t.Fatalf("search block after one search: %+v", s)
	}
}

func TestStatsEndpoint(t *testing.T) {
	pool := serve.New(serve.Config{})
	srv := newPoolServer(t, pool)
	for i := 0; i < 2; i++ {
		if code, raw := post(t, srv, "/v1/plan", planBody); code != http.StatusOK {
			t.Fatalf("plan %d: %d %s", i, code, raw)
		}
	}
	post(t, srv, "/v1/plan", `{"nope":`) // one malformed request
	var st StatsResponse
	getJSON(t, srv, "/v1/stats", &st)
	if st.Version != Version {
		t.Fatalf("stats header: %+v", st)
	}
	ep := st.Serve.Endpoints[epPlan]
	if ep.Requests != 3 || ep.Errors != 1 || ep.InFlight != 0 {
		t.Fatalf("plan endpoint counters: %+v", ep)
	}
	if ep.Latency.Count != 3 || ep.Latency.P50Ms <= 0 || ep.Latency.P99Ms < ep.Latency.P50Ms {
		t.Fatalf("plan latency: %+v", ep.Latency)
	}
	if ep.ThroughputRPS <= 0 {
		t.Fatalf("throughput: %+v", ep)
	}
	// The identical plan was served twice sequentially: the second
	// replayed from the response cache without touching an engine.
	if ep.Cached != 1 {
		t.Fatalf("cached count: %+v", ep)
	}
	if st.Responses.Hits != 1 || st.Responses.Size == 0 {
		t.Fatalf("response cache stats: %+v", st.Responses)
	}
	// The same counters ride on /healthz.
	var h HealthResponse
	getJSON(t, srv, "/healthz", &h)
	if h.Serve.Endpoints[epPlan].Requests != 3 {
		t.Fatalf("healthz serve block: %+v", h.Serve.Endpoints[epPlan])
	}
	// The one real computation filled exactly one world-cache entry.
	if h.Cache.Size != 1 || h.Cache.Misses == 0 || h.Responses.Hits != 1 {
		t.Fatalf("cache stats: %+v / %+v", h.Cache, h.Responses)
	}
}

// TestBatchCoalescesWithItself: one batch carrying N distinct items plus
// concurrent identical singles is exercised by the soak test; here we
// pin the deterministic part — a second identical batch answers
// bit-identically.
func TestBatchDeterministic(t *testing.T) {
	srv := newTestServer(t)
	body := fmt.Sprintf(`{"items":[{"op":"plan","config":%s},{"op":"search","config":%s}]}`, batchPlanCfg, batchSearchCfg)
	code1, raw1 := post(t, srv, "/v1/plan/batch", body)
	code2, raw2 := post(t, srv, "/v1/plan/batch", body)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d / %d", code1, code2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("batch not deterministic:\n%s\nvs\n%s", raw1, raw2)
	}
}
