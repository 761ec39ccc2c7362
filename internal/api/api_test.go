package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/fleet"
)

// newTestServer starts a single-engine server whose fleets run in
// memory on a stopped fake clock: /v1/jobs then answers the
// virtual-replay view (a zero submit stays at instant 0, nothing
// finishes or retires on its own).
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return startServer(t, NewServer(engine.New(engine.Config{})), "", fleet.NewFakeClock())
}

// startServer points s's fleets at dir ("" = in memory) and clock and
// serves it. Cleanup closes the listener, then the operators, so no
// operator loop outlives the test.
func startServer(t *testing.T, s *Server, dir string, clock fleet.Clock) *httptest.Server {
	t.Helper()
	if _, err := s.ConfigureOperators(OperatorMode{JournalDir: dir, Clock: clock}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := s.CloseOperators(); err != nil {
			t.Error(err)
		}
	})
	return srv
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

const planBody = `{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}`

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Concurrency < 1 {
		t.Fatalf("health: %+v", h)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv := newTestServer(t)
	code, body := post(t, srv, "/v1/plan", planBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var p PlanResponse
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Degrees != (DegreesJSON{Tensor: 1, Pipeline: 4, Data: 16}) {
		t.Fatalf("degrees %+v", p.Degrees)
	}
	if p.Report.TFLOPS <= 0 || p.Report.Throughput <= 0 {
		t.Fatalf("empty report: %+v", p.Report)
	}
	if p.CommBytes["data"] <= 0 {
		t.Fatalf("no DP communication estimate: %+v", p.CommBytes)
	}
	// Holmes on a hybrid topology keeps every DP group on RDMA.
	if p.DPGroupsByNIC["Ethernet"] != 0 {
		t.Fatalf("DP groups leaked onto Ethernet: %+v", p.DPGroupsByNIC)
	}
}

// Planning must answer correctly for >= 8 parallel clients on one shared
// engine: every response is bit-identical (the simulation is
// deterministic and request handling shares no mutable state). Run under
// -race in CI.
func TestPlanConcurrentClientsIdentical(t *testing.T) {
	srv := newTestServer(t)
	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(planBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d saw a different plan:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// Mixed concurrent traffic — plans, searches, experiments, health — on
// one shared engine must all succeed (the -race arm of the multi-tenant
// claim).
func TestMixedConcurrentTraffic(t *testing.T) {
	srv := newTestServer(t)
	reqs := []struct {
		method, path, body string
	}{
		{"POST", "/v1/plan", planBody},
		{"POST", "/v1/plan", `{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
		{"POST", "/v1/search", `{"env":"Hybrid","nodes":4,"model":{"group":1}}`},
		{"POST", "/v1/experiments/table1", ""},
		{"GET", "/healthz", ""},
		{"POST", "/v1/plan", planBody},
		{"POST", "/v1/experiments/fig6", ""},
		{"GET", "/healthz", ""},
	}
	var wg sync.WaitGroup
	for i, rq := range reqs {
		i, rq := i, rq
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp *http.Response
			var err error
			if rq.method == "GET" {
				resp, err = http.Get(srv.URL + rq.path)
			} else {
				resp, err = http.Post(srv.URL+rq.path, "application/json", strings.NewReader(rq.body))
			}
			if err != nil {
				t.Errorf("req %d %s: %v", i, rq.path, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("req %d %s: status %d: %s", i, rq.path, resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
}

func TestSearchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	code, body := post(t, srv, "/v1/search", `{"env":"Hybrid","nodes":8,"model":{"group":3}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.CellsExplored < 4 || len(sr.Cells) != sr.CellsExplored {
		t.Fatalf("search space: %d cells, %d listed", sr.CellsExplored, len(sr.Cells))
	}
	// The paper fixes t=1; the honest TP cost keeps the joint winner there.
	if sr.Winner.Degrees.Tensor != 1 {
		t.Fatalf("winner %+v", sr.Winner.Degrees)
	}
	// Fixed degrees belong on /v1/plan.
	code, _ = post(t, srv, "/v1/search", planBody)
	if code != http.StatusBadRequest {
		t.Fatalf("search accepted fixed degrees: status %d", code)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	srv := newTestServer(t)
	code, body := post(t, srv, "/v1/experiments/table1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var er ExperimentResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Experiment != "table1" || len(er.Rows) != 4 {
		t.Fatalf("experiment response: %s, %d rows", er.Experiment, len(er.Rows))
	}
	code, _ = post(t, srv, "/v1/experiments/bogus", "")
	if code != http.StatusNotFound {
		t.Fatalf("bogus experiment: status %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed JSON", `{"env":`},
		{"unknown field", `{"nope":1}`},
		{"missing degrees", `{"env":"Hybrid","nodes":8,"model":{"group":3}}`},
		{"env and clusters", `{"env":"Hybrid","nodes":4,"clusters":[{"nic":"RoCE","nodes":2}],"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
		{"unknown env", `{"env":"Carrier-Pigeon","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
		{"oversized topology", `{"env":"InfiniBand","nodes":2000000000,"model":{"group":1},"tensor_size":1,"pipeline_size":1}`},
		{"env with custom gpus_per_node", `{"env":"Hybrid","nodes":4,"gpus_per_node":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
	} {
		code, _ := post(t, srv, "/v1/plan", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Valid config, infeasible degrees: 422.
	code, _ := post(t, srv, "/v1/plan", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":3,"pipeline_size":2}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("infeasible degrees: status %d, want 422", code)
	}
}
