package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"holmes/internal/fleet"
	"holmes/internal/serve"
)

// newOperatorServer builds a test server whose fleets journal under dir
// on the given clock, sharing one pool across restarts of the same dir.
func newOperatorServer(t *testing.T, pool *serve.Pool, dir string, clock fleet.Clock) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServerPool(pool)
	return s, startServer(t, s, dir, clock)
}

func opJobBody(id string, gpus int, policy string) string {
	pol := ""
	if policy != "" {
		pol = fmt.Sprintf(`,"policy":%q`, policy)
	}
	return fmt.Sprintf(`{"fleet":%s,"job":{"id":%q,"gpus":%d,"iterations":1,"model":{"group":1}}%s}`, jobFleet, id, gpus, pol)
}

func TestOperatorModeLifecycle(t *testing.T) {
	pool := serve.New(serve.Config{})
	dir := t.TempDir()
	clock := fleet.NewFakeClock()
	_, srv := newOperatorServer(t, pool, dir, clock)

	// Submit under an explicit policy: the response carries the
	// wall-clock view — state, now, policy.
	code, body := post(t, srv, "/v1/jobs", opJobBody("alpha", 16, "priority"))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.State != "running" || jr.Policy != "priority" {
		t.Fatalf("submit response state=%q policy=%q, want running/priority", jr.State, jr.Policy)
	}
	if jr.Placement.Start != 0 {
		t.Fatalf("submit stamped at %g, want the wall instant 0", jr.Placement.Start)
	}

	// A submit must not silently switch the fleet's policy.
	code, body = post(t, srv, "/v1/jobs", opJobBody("beta", 8, "edf"))
	if code != http.StatusConflict {
		t.Fatalf("policy mismatch: %d %s", code, body)
	}
	code, body = post(t, srv, "/v1/jobs", opJobBody("gamma", 8, "warp"))
	if code != http.StatusBadRequest {
		t.Fatalf("unknown policy: %d %s", code, body)
	}

	// The fleet list reports the operator view.
	code, body = do(t, http.MethodGet, srv.URL+"/v1/jobs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var fl FleetsResponse
	if err := json.Unmarshal(body, &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Fleets) != 1 || fl.Fleets[0].Policy != "priority" || fl.Fleets[0].Jobs != 1 {
		t.Fatalf("fleet list: %+v", fl.Fleets)
	}

	// Walk the wall clock past the job's finish: it retires on its own,
	// and the ID still resolves — state done, final placement intact.
	finish := jr.Placement.Finish
	deadline := 0
	for {
		clock.Advance(finish + 1 - clock.Now())
		code, body = do(t, http.MethodGet, srv.URL+"/v1/jobs/alpha", "")
		if code != http.StatusOK {
			t.Fatalf("poll after finish: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Jobs == 0 {
			break
		}
		if deadline++; deadline > 5000 {
			t.Fatalf("job never retired: %+v", jr)
		}
	}
	if jr.State != "done" || jr.Placement.JobID != "alpha" || jr.Placement.Finish != finish {
		t.Fatalf("retired job view: %+v", jr)
	}

	// Retired work is history: DELETE refuses, resubmitting the ID
	// conflicts.
	code, body = do(t, http.MethodDelete, srv.URL+"/v1/jobs/alpha", "")
	if code != http.StatusConflict {
		t.Fatalf("delete retired: %d %s", code, body)
	}
	code, body = post(t, srv, "/v1/jobs", opJobBody("alpha", 8, ""))
	if code != http.StatusConflict {
		t.Fatalf("resubmit retired: %d %s", code, body)
	}
}

// TestOperatorConcurrentDuplicateSubmits: two racing submits of the
// same job ID aimed at *different* fleets must mint exactly one job.
// Regression for a TOCTOU: the uniqueness scan and the submit it
// authorized ran under separate lock scopes, so both racers could pass
// the scan and create a cross-fleet duplicate ID, making later
// GET/DELETE resolution ambiguous.
func TestOperatorConcurrentDuplicateSubmits(t *testing.T) {
	pool := serve.New(serve.Config{})
	dir := t.TempDir()
	_, srv := newOperatorServer(t, pool, dir, fleet.NewFakeClock())

	const fleetB = `{"env":"Hybrid","nodes":8}`
	for round := 0; round < 8; round++ {
		id := fmt.Sprintf("dup-%d", round)
		bodies := []string{
			opJobBody(id, 8, ""),
			fmt.Sprintf(`{"fleet":%s,"job":{"id":%q,"gpus":8,"iterations":1,"model":{"group":1}}}`, fleetB, id),
		}
		codes := make([]int, len(bodies))
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		ok, conflict := 0, 0
		for _, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusConflict:
				conflict++
			}
		}
		if ok != 1 || conflict != 1 {
			t.Fatalf("round %d: concurrent duplicate submits returned %v, want exactly one 200 and one 409", round, codes)
		}
	}
}

// TestOperatorModeRecovery is the serve-layer crash-recovery contract:
// kill a daemon cold, start a fresh one on the same journal dir, and
// the fleet is back — same policy, same jobs, same placements.
func TestOperatorModeRecovery(t *testing.T) {
	pool := serve.New(serve.Config{})
	dir := t.TempDir()
	clock := fleet.NewFakeClock()
	s1, srv1 := newOperatorServer(t, pool, dir, clock)

	code, body := post(t, srv1, "/v1/jobs", opJobBody("alpha", 16, "edf"))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	var before JobResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	code, body = post(t, srv1, "/v1/jobs", opJobBody("beta", 8, ""))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	// Kill cold: no retirement, no final snapshot — only the journal.
	srv1.Close()
	if err := s1.AbortOperators(); err != nil {
		t.Fatal(err)
	}

	_, srv2 := newOperatorServer(t, pool, dir, fleet.NewFakeClock())
	code, body = do(t, http.MethodGet, srv2.URL+"/v1/jobs/alpha", "")
	if code != http.StatusOK {
		t.Fatalf("poll after recovery: %d %s", code, body)
	}
	var after JobResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Policy != "edf" || after.Jobs != 2 {
		t.Fatalf("recovered fleet policy=%q jobs=%d, want edf/2", after.Policy, after.Jobs)
	}
	b1, _ := json.Marshal(before.Placement)
	b2, _ := json.Marshal(after.Placement)
	if string(b1) != string(b2) {
		t.Fatalf("placement diverged across recovery:\nbefore: %s\nafter:  %s", b1, b2)
	}
}
