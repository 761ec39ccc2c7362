package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

const simulateBody = `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`

func TestSimulateEndpointPristine(t *testing.T) {
	srv := newTestServer(t)
	code, body := post(t, srv, "/v1/simulate", simulateBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r SimulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Degrees.Tensor != 1 || r.Degrees.Pipeline != 2 || r.Report.Throughput <= 0 {
		t.Fatalf("response: %+v", r)
	}
	if r.Scenario != "" || r.ScenarioEvents != 0 {
		t.Fatalf("pristine run reports a scenario: %+v", r)
	}
}

func TestSimulateEndpointUnderScenario(t *testing.T) {
	srv := newTestServer(t)
	_, pristineBody := post(t, srv, "/v1/simulate", simulateBody)
	var pristine SimulateResponse
	if err := json.Unmarshal(pristineBody, &pristine); err != nil {
		t.Fatal(err)
	}

	withSc := strings.TrimSuffix(simulateBody, "}") +
		`,"scenario":{"name":"nic-fault","events":[{"kind":"fail_node","at":0,"node":0}]}}`
	code, body := post(t, srv, "/v1/simulate", withSc)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r SimulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "nic-fault" || r.ScenarioEvents != 1 {
		t.Fatalf("scenario not reported: %+v", r)
	}
	if !(r.Report.IterSeconds > pristine.Report.IterSeconds) {
		t.Fatalf("failed node did not increase step time: %v vs %v",
			r.Report.IterSeconds, pristine.Report.IterSeconds)
	}

	// An empty scenario is bit-identical to no scenario.
	empty := strings.TrimSuffix(simulateBody, "}") + `,"scenario":{}}`
	code, body = post(t, srv, "/v1/simulate", empty)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var e SimulateResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Report != pristine.Report {
		t.Fatalf("empty scenario not a no-op:\n%+v\n%+v", e.Report, pristine.Report)
	}
}

// TestSimulateEndpointImpairmentVocabulary drives /v1/simulate through
// the packet-impairment kinds: a lossy straggling fabric must be slower
// than pristine, a partition must bite the cross-cluster trunk, and a
// fixed scenario seed must make jittered runs reproducible.
func TestSimulateEndpointImpairmentVocabulary(t *testing.T) {
	srv := newTestServer(t)
	_, pristineBody := post(t, srv, "/v1/simulate", simulateBody)
	var pristine SimulateResponse
	if err := json.Unmarshal(pristineBody, &pristine); err != nil {
		t.Fatal(err)
	}

	impaired := strings.TrimSuffix(simulateBody, "}") + `,"scenario":{"name":"impaired","seed":11,"events":[
		{"kind":"loss","at":0,"node":0,"pct":20},
		{"kind":"delay","at":0,"node":1,"delay_ms":2,"direction":"both"},
		{"kind":"jitter","at":0,"node":1,"jitter_ms":0.5,"dist":"pareto"},
		{"kind":"straggler","at":0,"node":2,"factor":0.5}]}}`
	code, body := post(t, srv, "/v1/simulate", impaired)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r SimulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "impaired" || r.ScenarioEvents != 4 {
		t.Fatalf("scenario not reported: %+v", r)
	}
	if !(r.Report.IterSeconds > pristine.Report.IterSeconds) {
		t.Fatalf("lossy straggling fabric not slower: %v vs pristine %v",
			r.Report.IterSeconds, pristine.Report.IterSeconds)
	}

	// Same timeline and seed under a different name (to dodge the request
	// coalescer): the jittered report must reproduce bit for bit.
	again := strings.Replace(impaired, `"name":"impaired"`, `"name":"impaired-2"`, 1)
	code, body = post(t, srv, "/v1/simulate", again)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r2 SimulateResponse
	if err := json.Unmarshal(body, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Report != r.Report {
		t.Fatalf("seeded jitter not reproducible:\n%+v\n%+v", r.Report, r2.Report)
	}

	// A partition saturates the cross-cluster trunk down to its failure
	// residual for the window; hybrid pipeline traffic must crawl.
	part := strings.TrimSuffix(simulateBody, "}") +
		`,"scenario":{"name":"split","events":[{"kind":"partition","at":0,"cluster":0,"peer":1,"until":1e6}]}}`
	code, body = post(t, srv, "/v1/simulate", part)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var p SimulateResponse
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if !(p.Report.IterSeconds > 10*pristine.Report.IterSeconds) {
		t.Fatalf("partition barely bit: %v vs pristine %v",
			p.Report.IterSeconds, pristine.Report.IterSeconds)
	}
}

func TestSimulateEndpointRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"missing degrees", `{"env":"Hybrid","nodes":4,"model":{"group":1}}`},
		{"invalid event", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,
			"scenario":{"events":[{"kind":"degrade_nic","at":0,"factor":9}]}}`},
		{"unknown scenario field", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,
			"scenario":{"events":[{"kind":"fail_node","at":0,"frobnicate":true}]}}`},
		// 12·h² wraps int64 negative and used to slip under the memory check.
		{"parameter count wrapping int64", `{"env":"InfiniBand","nodes":2,"model":{"layers":4,"hidden":1000000000,"heads":8,"global_batch":64},
			"tensor_size":1,"pipeline_size":2}`},
	}
	for _, tc := range cases {
		code, body := post(t, srv, "/v1/simulate", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", tc.name, code, body)
		}
	}

	// Out-of-range node targets are caught at bind time.
	code, body := post(t, srv, "/v1/simulate",
		`{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,
		  "scenario":{"events":[{"kind":"fail_node","at":0,"node":64}]}}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-range node: status %d (%s)", code, body)
	}

	// A timeline at the event budget simulates; one above it is rejected
	// before simulating.
	if code, body := post(t, srv, "/v1/simulate", bigScenario(maxScenarioEvents)); code != http.StatusOK {
		t.Errorf("timeline of %d events: status %d (%s)", maxScenarioEvents, code, body)
	}
	var evs []string
	for i := 0; i <= maxScenarioEvents; i++ {
		evs = append(evs, `{"kind":"fail_node","at":0,"node":0}`)
	}
	huge := fmt.Sprintf(`{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,
		"scenario":{"events":[%s]}}`, strings.Join(evs, ","))
	if code, body := post(t, srv, "/v1/simulate", huge); code != http.StatusBadRequest {
		t.Errorf("oversized timeline: status %d (%s)", code, body)
	}

	// Plan and search stay scenario-free surfaces.
	withSc := `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,
		"scenario":{"events":[{"kind":"fail_node","at":0,"node":0}]}}`
	if code, body := post(t, srv, "/v1/plan", withSc); code != http.StatusBadRequest {
		t.Errorf("plan accepted a scenario: status %d (%s)", code, body)
	}
	searchSc := `{"env":"Hybrid","nodes":4,"model":{"group":1},
		"scenario":{"events":[{"kind":"fail_node","at":0,"node":0}]}}`
	if code, body := post(t, srv, "/v1/search", searchSc); code != http.StatusBadRequest {
		t.Errorf("search accepted a scenario: status %d (%s)", code, body)
	}
}

// A model asking for more micro-batches than maxMicroBatches is refused
// at decode, with micro_batch given or defaulted; one at the bound runs.
func TestSimulateMicroBatchBound(t *testing.T) {
	srv := newTestServer(t)
	body := func(model string) string {
		return fmt.Sprintf(`{"env":"InfiniBand","nodes":2,"model":%s,"tensor_size":1,"pipeline_size":2}`, model)
	}
	for _, tc := range []struct {
		name, model string
		want        int
	}{
		{"explicit micro-batch at the bound", fmt.Sprintf(`{"layers":4,"hidden":1024,"heads":8,"global_batch":%d,"micro_batch":1}`, maxMicroBatches), http.StatusOK},
		{"explicit micro-batch above the bound", fmt.Sprintf(`{"layers":4,"hidden":1024,"heads":8,"global_batch":%d,"micro_batch":1}`, maxMicroBatches+1), http.StatusBadRequest},
		{"default micro-batch at the bound", fmt.Sprintf(`{"layers":4,"hidden":1024,"heads":8,"global_batch":%d}`, 4*maxMicroBatches), http.StatusOK},
		{"default micro-batch above the bound", fmt.Sprintf(`{"layers":4,"hidden":1024,"heads":8,"global_batch":%d}`, 4*(maxMicroBatches+1)), http.StatusBadRequest},
	} {
		code, resp := post(t, srv, "/v1/simulate", body(tc.model))
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, resp)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(resp), "micro-batches") {
			t.Errorf("%s: rejected for another reason: %s", tc.name, resp)
		}
	}
}
