package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// bigScenario renders a scenario body with n events (for the over-limit
// case).
func bigScenario(n int) string {
	events := make([]string, n)
	for i := range events {
		events[i] = fmt.Sprintf(`{"kind":"degrade_nic","at":%d,"node":0,"factor":0.9}`, i+1)
	}
	return fmt.Sprintf(`{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,"scenario":{"name":"big","events":[%s]}}`, strings.Join(events, ","))
}

// overLimit pads body with whitespace to one byte over limit.
func overLimit(body string, limit int) string {
	return body + strings.Repeat(" ", limit+1-len(body))
}

// bigBatch renders a batch with n copies of a distinct trivial item.
func bigBatch(n int) string {
	items := make([]string, n)
	for i := range items {
		// Vary tensor_size/pipeline_size so items are distinct (duplicates
		// are their own error case).
		items[i] = fmt.Sprintf(`{"op":"plan","config":{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":%d}}`, i+1)
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// TestErrorPaths is the table-driven error contract of the API: every
// failure answers the documented status with Content-Type
// application/json and a stable error substring — clients key retries
// and dashboards off these, so a drive-by rewording is a break. Each
// request goes twice: a rejected body is never stored, so its repeat
// answers the same error.
func TestErrorPaths(t *testing.T) {
	srv := newTestServer(t)
	for _, tc := range []struct {
		name       string
		method     string
		path, body string
		wantStatus int
		wantSubstr string
	}{
		{"malformed JSON", "POST", "/v1/plan", `{"env":`, 400, "config:"},
		{"unknown field", "POST", "/v1/plan", `{"nope":1}`, 400, "config:"},
		{"missing degrees", "POST", "/v1/plan", `{"env":"Hybrid","nodes":8,"model":{"group":3}}`, 400, "plan needs tensor_size >= 1 and pipeline_size >= 1"},
		{"plan with scenario", "POST", "/v1/plan", `{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,"scenario":{"name":"s","events":[{"kind":"fail_node","at":0,"node":0}]}}`, 400, "use /v1/simulate"},
		{"search with degrees", "POST", "/v1/search", planBody, 400, "search picks tensor_size and pipeline_size itself"},
		{"infeasible degrees", "POST", "/v1/plan", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":3,"pipeline_size":2}`, 422, ""},
		{"oversized topology", "POST", "/v1/plan", `{"env":"InfiniBand","nodes":2000000000,"model":{"group":1},"tensor_size":1,"pipeline_size":1}`, 400, "exceeds the per-request limit of 512"},
		{"unknown experiment id", "POST", "/v1/experiments/bogus", "", 404, `unknown experiment "bogus"`},
		{"oversized scenario", "POST", "/v1/simulate", bigScenario(257), 400, "257 scenario events exceeds the per-request limit of 256"},
		{"empty batch", "POST", "/v1/plan/batch", `{"items":[]}`, 400, "empty batch"},
		{"missing batch items", "POST", "/v1/plan/batch", `{}`, 400, "empty batch"},
		{"over-limit batch", "POST", "/v1/plan/batch", bigBatch(257), 400, "257 items exceeds the per-request limit of 256"},
		{"batch malformed envelope", "POST", "/v1/plan/batch", `{"items":`, 400, "batch:"},
		{"batch unknown op", "POST", "/v1/plan/batch", `{"items":[{"op":"dance","config":{"env":"InfiniBand","nodes":4,"model":{"group":1}}}]}`, 400, `unknown op "dance"`},
		{"batch item without config", "POST", "/v1/plan/batch", `{"items":[{"op":"plan"}]}`, 400, "item 0 has no config"},
		{"batch item bad config", "POST", "/v1/plan/batch", `{"items":[{"op":"plan","config":{"nope":1}}]}`, 400, "item 0: config:"},
		{"method not allowed", "GET", "/v1/plan", "", 405, "method GET not allowed"},
		{"unknown route", "GET", "/v1/nope", "", 404, "no such endpoint"},
		{"stats wrong method", "POST", "/v1/stats", "", 405, "method POST not allowed"},
		{"jobs malformed body", "POST", "/v1/jobs", `{"fleet":`, 400, "jobs:"},
		{"jobs unknown field", "POST", "/v1/jobs", `{"nope":1}`, 400, "jobs:"},
		{"jobs no fleet", "POST", "/v1/jobs", `{"job":{"id":"a","gpus":8,"model":{"group":1}}}`, 400, "config: no clusters"},
		{"jobs ragged demand", "POST", "/v1/jobs", `{"fleet":{"env":"Hybrid","nodes":4},"job":{"id":"a","gpus":12,"model":{"group":1}}}`, 400, "multiple of the fleet's 8 GPUs per node"},
		{"jobs oversized fleet", "POST", "/v1/jobs", `{"fleet":{"env":"InfiniBand","nodes":600},"job":{"id":"a","gpus":8,"model":{"group":1}}}`, 400, "exceeds the per-fleet limit of 512"},
		{"jobs unknown poll", "GET", "/v1/jobs/ghost", "", 404, `no such job "ghost"`},
		{"jobs unknown cancel", "DELETE", "/v1/jobs/ghost", "", 404, `no such job "ghost"`},
		{"jobs wrong method", "PUT", "/v1/jobs", "", 405, "method PUT not allowed"},
		// One JSON value per body: whatever follows it is rejected, not
		// silently dropped.
		{"plan trailing garbage", "POST", "/v1/plan", planBody + "xyz", 400, "config:"},
		{"plan second config", "POST", "/v1/plan", planBody + `{"env":"RoCE","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`, 400, "trailing data after the JSON value"},
		{"search second config", "POST", "/v1/search", `{"env":"Hybrid","nodes":8,"model":{"group":3}} {}`, 400, "trailing data after the JSON value"},
		{"simulate stray brace", "POST", "/v1/simulate", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}}`, 400, "config:"},
		{"batch trailing garbage", "POST", "/v1/plan/batch", `{"items":[{"op":"plan","config":` + planBody + `}]}garbage`, 400, "batch:"},
		{"jobs trailing object", "POST", "/v1/jobs", `{"fleet":{"env":"Hybrid","nodes":4},"job":{"id":"a","gpus":8,"model":{"group":1}}}{"oops":1}`, 400, "trailing data after the JSON value"},
		// A body over its limit is 413 on every endpoint, unless the
		// decoder meets a syntax error within the limit first.
		{"simulate over limit", "POST", "/v1/simulate", overLimit(batchSimulateCfg, maxBodyBytes), 413, "config: http: request body too large"},
		{"search over limit", "POST", "/v1/search", overLimit(batchSearchCfg, maxBodyBytes), 413, "config: http: request body too large"},
		{"syntax error over limit", "POST", "/v1/plan", overLimit(`{"env":]`, maxBodyBytes), 400, "config: invalid character ']' looking for beginning of value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for range 2 {
				req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != tc.wantStatus {
					t.Errorf("status %d, want %d (%.200s)", resp.StatusCode, tc.wantStatus, body)
				}
				// The fix this suite pins: EVERY error path answers JSON.
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("content-type %q, want application/json", ct)
				}
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
					t.Fatalf("body is not an error envelope (%v): %.200s", err, body)
				}
				if tc.wantSubstr != "" && !strings.Contains(eb.Error, tc.wantSubstr) {
					t.Errorf("error %q missing %q", eb.Error, tc.wantSubstr)
				}
			}
		})
	}
}

// TestMethodNotAllowedAllowHeader pins the Allow header on 405s.
func TestMethodNotAllowedAllowHeader(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("status %d, Allow %q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestHeadRidesWithGet: uptime probes health-check with HEAD; the GET
// endpoints must answer it 200 like the stock mux method patterns did.
func TestHeadRidesWithGet(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{"/healthz", "/v1/stats"} {
		resp, err := http.Head(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status %d, want 200", path, resp.StatusCode)
		}
	}
	// HEAD does not ride along with POST endpoints.
	req, _ := http.NewRequest(http.MethodHead, srv.URL+"/v1/plan", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

// The body limits hold at the byte: a valid body padded with trailing
// whitespace to exactly its endpoint's limit answers, and one byte more
// is 413 — the bytes after the object are read, not ignored. That holds
// for a single plan at maxBodyBytes and for a one-item batch at
// maxBatchBodyBytes.
func TestBodyLimitAtBound(t *testing.T) {
	srv := newTestServer(t)
	for _, c := range []struct {
		path, body string
		limit      int
	}{
		{"/v1/plan", planBody, maxBodyBytes},
		{"/v1/plan/batch", `{"items":[{"op":"plan","config":` + planBody + `}]}`, maxBatchBodyBytes},
	} {
		atLimit := c.body + strings.Repeat(" ", c.limit-len(c.body))
		if code, body := post(t, srv, c.path, atLimit); code != http.StatusOK {
			t.Fatalf("%s body of exactly %d bytes: status %d, want 200 (%.120s)", c.path, c.limit, code, body)
		}
		if code, body := post(t, srv, c.path, atLimit+" "); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s body of %d bytes: status %d, want 413 (%.120s)", c.path, c.limit+1, code, body)
		}
	}
}

// TestOversizedBody413 pins the status class of a body that blows the
// MaxBytesReader limit: 413, not 400 — the client must learn to shrink
// the request, not to fix its syntax.
func TestOversizedBody413(t *testing.T) {
	srv := newTestServer(t)
	huge := `{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4,"framework":"` +
		strings.Repeat("x", 1<<20) + `"}`
	code, body := post(t, srv, "/v1/plan", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized single body: status %d, want 413 (%.120s)", code, body)
	}
	hugeBatch := `{"items":[{"op":"plan","config":{"framework":"` + strings.Repeat("x", maxBatchBodyBytes) + `"}}]}`
	code, body = post(t, srv, "/v1/plan/batch", hugeBatch)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: status %d, want 413 (%.120s)", code, body)
	}
}
