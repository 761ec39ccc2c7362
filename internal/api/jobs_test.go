package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"holmes/internal/config"
	"holmes/internal/engine"
	"holmes/internal/fleet"
	"holmes/internal/serve"
)

const jobFleet = `{"env":"Hybrid","nodes":4}`

func jobBody(id string, gpus int, group int) string {
	return fmt.Sprintf(`{"fleet":%s,"job":{"id":%q,"gpus":%d,"model":{"group":%d}}}`, jobFleet, id, gpus, group)
}

// do issues one request with an arbitrary method.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestJobsLifecycle(t *testing.T) {
	srv := newTestServer(t)

	// Submit: the job lands with a concrete placement.
	code, body := post(t, srv, "/v1/jobs", jobBody("alpha", 16, 1))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Jobs != 1 || len(jr.Placement.Nodes) != 2 || jr.Placement.Unplaced != "" {
		t.Fatalf("submit response: %+v", jr)
	}
	if jr.Makespan <= 0 || jr.Placement.Throughput <= 0 {
		t.Fatalf("empty schedule summary: %+v", jr)
	}

	// Duplicate ID is a conflict, across any fleet.
	code, body = post(t, srv, "/v1/jobs", jobBody("alpha", 8, 1))
	if code != http.StatusConflict {
		t.Fatalf("duplicate submit: %d %s", code, body)
	}

	// Poll: bit-identical to the submit answer while the set is unchanged.
	code, poll := do(t, http.MethodGet, srv.URL+"/v1/jobs/alpha", "")
	if code != http.StatusOK {
		t.Fatalf("poll: %d %s", code, poll)
	}
	var pr JobResponse
	if err := json.Unmarshal(poll, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Placement.JobID != "alpha" || pr.Placement.Start != jr.Placement.Start {
		t.Fatalf("poll drifted from submit: %+v vs %+v", pr.Placement, jr.Placement)
	}

	// A second job contends deterministically.
	code, body = post(t, srv, "/v1/jobs", jobBody("beta", 32, 2))
	if code != http.StatusOK {
		t.Fatalf("second submit: %d %s", code, body)
	}

	// List: one fleet, two jobs.
	code, list := do(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, list)
	}
	var fr FleetsResponse
	if err := json.Unmarshal(list, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Fleets) != 1 || fr.Fleets[0].Jobs != 2 || len(fr.Fleets[0].Schedule.Jobs) != 2 {
		t.Fatalf("list response: %s", list)
	}

	// Cancel: the job disappears; polling and re-cancelling answer 404.
	code, body = do(t, http.MethodDelete, srv.URL+"/v1/jobs/alpha", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	var cr CancelResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Canceled || cr.Jobs != 1 {
		t.Fatalf("cancel response: %+v", cr)
	}
	if code, _ = do(t, http.MethodGet, srv.URL+"/v1/jobs/alpha", ""); code != http.StatusNotFound {
		t.Fatalf("poll after cancel: %d", code)
	}
	if code, _ = do(t, http.MethodDelete, srv.URL+"/v1/jobs/alpha", ""); code != http.StatusNotFound {
		t.Fatalf("double cancel: %d", code)
	}

	// The ID is free again after cancellation.
	if code, body = post(t, srv, "/v1/jobs", jobBody("alpha", 8, 1)); code != http.StatusOK {
		t.Fatalf("resubmit after cancel: %d %s", code, body)
	}

	// A drained fleet stays listed with no live jobs; it gives up its
	// slot only when a new topology needs one (TestJobsBounds).
	for _, id := range []string{"alpha", "beta"} {
		if code, body = do(t, http.MethodDelete, srv.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
			t.Fatalf("drain cancel %s: %d %s", id, code, body)
		}
	}
	fr = listFleets(t, srv)
	if len(fr.Fleets) != 1 || fr.Fleets[0].Jobs != 0 {
		t.Fatalf("drained fleet: %+v", fr.Fleets)
	}
}

func listFleets(t *testing.T, srv *httptest.Server) FleetsResponse {
	t.Helper()
	code, list := do(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, list)
	}
	var fr FleetsResponse
	if err := json.Unmarshal(list, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestJobsBounds feeds both /v1/jobs limits at bound and bound+1. A
// fleet admits fleet.MaxJobs jobs and refuses the next with 429. The
// daemon opens maxFleets fleets and refuses a new topology with 429
// while every fleet holds live jobs; once fleets drain, the new
// topology evicts the drained one with the lowest fingerprint, whose
// journal and snapshot go with it, and a restart recovers exactly the
// fleets that remain.
func TestJobsBounds(t *testing.T) {
	pool := serve.New(serve.Config{})
	dir := t.TempDir()
	s, srv := newOperatorServer(t, pool, dir, fleet.NewFakeClock())
	submit := func(spec, id string) (int, []byte) {
		return post(t, srv, "/v1/jobs",
			fmt.Sprintf(`{"fleet":%s,"job":{"id":%q,"gpus":8,"iterations":1,"model":{"group":1}}}`, spec, id))
	}
	mustSubmit := func(spec, id string) {
		t.Helper()
		if code, body := submit(spec, id); code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}

	for i := 0; i < fleet.MaxJobs; i++ {
		mustSubmit(jobFleet, fmt.Sprintf("j%02d", i))
	}
	if code, body := submit(jobFleet, "j-over"); code != http.StatusTooManyRequests {
		t.Fatalf("job %d in one fleet: %d %s, want 429", fleet.MaxJobs+1, code, body)
	}

	ib := func(nodes int) string { return fmt.Sprintf(`{"env":"InfiniBand","nodes":%d}`, nodes) }
	for n := 1; n < maxFleets; n++ {
		mustSubmit(ib(n), fmt.Sprintf("f%02d", n))
	}
	if code, body := submit(ib(maxFleets), "f-over"); code != http.StatusTooManyRequests {
		t.Fatalf("fleet %d while all hold live jobs: %d %s, want 429", maxFleets+1, code, body)
	}

	for _, id := range []string{"f01", "f02"} {
		if code, body := do(t, http.MethodDelete, srv.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
			t.Fatalf("drain %s: %d %s", id, code, body)
		}
	}
	var drained []string
	for _, f := range listFleets(t, srv).Fleets {
		if f.Jobs == 0 {
			drained = append(drained, f.Fleet)
		}
	}
	if len(drained) != 2 {
		t.Fatalf("%d drained fleets listed, want 2", len(drained))
	}
	victim, survivor := drained[0], drained[1] // listing is fingerprint-ordered
	mustSubmit(ib(maxFleets), "f-over")

	listed := map[string]int{}
	for _, f := range listFleets(t, srv).Fleets {
		listed[f.Fleet] = f.Jobs
	}
	if _, ok := listed[victim]; ok || len(listed) != maxFleets {
		t.Fatalf("after eviction: %d fleets, victim listed %v", len(listed), ok)
	}
	if jobs, ok := listed[survivor]; !ok || jobs != 0 {
		t.Fatalf("the higher-fingerprint drained fleet was not kept: %v", listed)
	}
	journal := s.fleets.journalPath(victim)
	for _, path := range []string{journal, journal + ".snap"} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("evicted fleet left %s behind (stat: %v)", path, err)
		}
	}
	if _, err := os.Stat(s.fleets.journalPath(survivor)); err != nil {
		t.Fatalf("the kept drained fleet lost its journal: %v", err)
	}

	srv.Close()
	if err := s.AbortOperators(); err != nil {
		t.Fatal(err)
	}
	_, srv2 := newOperatorServer(t, pool, dir, fleet.NewFakeClock())
	if got := len(listFleets(t, srv2).Fleets); got != maxFleets {
		t.Fatalf("restart recovered %d fleets, want %d", got, maxFleets)
	}
}

// soakJob renders client c's job j with deterministic parameters: the
// final schedule must be a pure function of the surviving set, so every
// field is derived from the IDs.
func soakJob(c, j int) fleet.Job {
	return fleet.Job{
		ID:         fmt.Sprintf("c%02d-j%d", c, j),
		Submit:     float64((c + j) % 4),
		GPUs:       8 * (1 + (c+j)%2),
		Iterations: 1 + c%2,
		Model:      config.ModelConfig{Group: 1 + (c+j)%2},
	}
}

// TestJobsDeterminismSoak is the fleet scheduler's concurrency wall: 32
// clients submit, poll, and cancel jobs against a 4-shard pool under
// -race, while a sampler watches /v1/stats mid-storm. Afterwards the
// served schedule must be bit-identical to a sequential replay of the
// surviving job set on a fresh engine — the interleaving, the shard
// count, and the storm must leave no trace in the answer.
func TestJobsDeterminismSoak(t *testing.T) {
	pool := serve.New(serve.Config{Shards: 4, MaxInFlight: 32, MaxQueue: 1024})
	srv := newPoolServer(t, pool)
	const clients = 32

	// submitRetry posts with retry on 429: backpressure is the system
	// working, and the client's job must still land.
	request := func(method, path, body string) (int, []byte) {
		for attempt := 0; ; attempt++ {
			req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			var buf []byte
			tmp := make([]byte, 4096)
			for {
				n, rerr := resp.Body.Read(tmp)
				buf = append(buf, tmp[:n]...)
				if rerr != nil {
					break
				}
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return resp.StatusCode, buf
		}
	}

	// Mid-storm sampler: the jobs endpoints' counters must be monotone
	// and error-free at every observation.
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	type obs struct{ jobs, job, errors uint64 }
	var samples []obs
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(25 * time.Millisecond):
			}
			code, raw := request(http.MethodGet, "/v1/stats", "")
			if code != http.StatusOK {
				t.Errorf("stats during soak: %d %s", code, raw)
				return
			}
			var sr StatsResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				t.Errorf("stats decode during soak: %v", err)
				return
			}
			var o obs
			if ep, ok := sr.Serve.Endpoints[epJobs]; ok {
				o.jobs = ep.Requests
				o.errors += ep.Errors
			}
			if ep, ok := sr.Serve.Endpoints[epJob]; ok {
				o.job = ep.Requests
				o.errors += ep.Errors
			}
			samples = append(samples, o)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Submit two jobs, poll both, cancel the second.
			for j := 0; j < 2; j++ {
				jb, _ := json.Marshal(soakJob(c, j))
				code, body := request(http.MethodPost, "/v1/jobs", fmt.Sprintf(`{"fleet":%s,"job":%s}`, jobFleet, jb))
				if code != http.StatusOK {
					t.Errorf("client %d submit %d: %d %s", c, j, code, body)
					return
				}
			}
			for round := 0; round < 3; round++ {
				for j := 0; j < 2; j++ {
					code, body := request(http.MethodGet, "/v1/jobs/"+soakJob(c, j).ID, "")
					if code != http.StatusOK {
						t.Errorf("client %d poll %d: %d %s", c, j, code, body)
						return
					}
				}
			}
			code, body := request(http.MethodDelete, "/v1/jobs/"+soakJob(c, 1).ID, "")
			if code != http.StatusOK {
				t.Errorf("client %d cancel: %d %s", c, code, body)
			}
		}(c)
	}
	wg.Wait()
	close(stopSampling)
	sampling.Wait()
	if t.Failed() {
		return
	}

	if len(samples) == 0 {
		t.Fatal("no stats samples collected during soak")
	}
	for i, s := range samples {
		if s.errors != 0 {
			t.Fatalf("sample %d: jobs endpoints reported %d errors mid-storm", i, s.errors)
		}
		if i > 0 && (s.jobs < samples[i-1].jobs || s.job < samples[i-1].job) {
			t.Fatalf("jobs counters regressed between samples %d and %d: %+v -> %+v",
				i-1, i, samples[i-1], s)
		}
	}

	// The surviving set: every client's job 0.
	var jobs []fleet.Job
	for c := 0; c < clients; c++ {
		jobs = append(jobs, soakJob(c, 0))
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})

	// Served schedule after the storm.
	code, raw := request(http.MethodGet, "/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("final list: %d %s", code, raw)
	}
	var fr FleetsResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Fleets) != 1 || fr.Fleets[0].Jobs != clients {
		t.Fatalf("final fleet state: %s", raw)
	}
	served, err := json.Marshal(fr.Fleets[0].Schedule)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential replay of the same trace on a fresh single engine.
	sched, err := fleet.Replay(engine.New(engine.Config{}), &fleet.Trace{
		Fleet: fleet.Spec{Env: "Hybrid", Nodes: 4},
		Jobs:  jobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	if string(served) != string(replayed) {
		t.Fatalf("storm schedule differs from sequential replay:\nserved:   %s\nreplayed: %s", served, replayed)
	}
	t.Logf("soak: %d clients, schedule of %d jobs bit-identical to sequential replay (makespan %.2fs, utilization %.1f%%)",
		clients, len(sched.Jobs), sched.Makespan, 100*sched.Utilization)
}

// A job's model is held to the same micro-batch bound as a simulation's:
// at the bound it is scheduled, one above it is refused before any
// fleet is touched.
func TestJobsMicroBatchBound(t *testing.T) {
	_, srv := newOperatorServer(t, serve.New(serve.Config{}), t.TempDir(), fleet.NewFakeClock())
	for _, tc := range []struct{ batch, want int }{
		{maxMicroBatches, http.StatusOK},
		{maxMicroBatches + 1, http.StatusBadRequest},
	} {
		code, body := post(t, srv, "/v1/jobs", fmt.Sprintf(
			`{"fleet":%s,"job":{"id":"b%d","gpus":8,"iterations":1,"model":{"layers":4,"hidden":1024,"heads":8,"global_batch":%d,"micro_batch":1}}}`,
			jobFleet, tc.batch, tc.batch))
		if code != tc.want {
			t.Errorf("global batch %d: status %d, want %d (%s)", tc.batch, code, tc.want, body)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(string(body), "micro-batches") {
			t.Errorf("global batch %d: rejected for another reason: %s", tc.batch, body)
		}
	}
}
