package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"holmes/internal/serve"
)

// The cache snapshot is the warm-start contract: a fresh process that
// loads one must answer the recorded corpus entirely from cache with
// byte-identical responses, and a file that fails any check — format,
// version, API version, checksum, or any single entry — must load
// nothing at all (a half-loaded snapshot would poison a cache with
// entries the request path can no longer account for).

// snapshotCorpus is a small but mixed corpus: three distinct plan
// cells, one joint search, one scenario simulate.
var snapshotCorpus = []struct{ path, body string }{
	{"/v1/plan", `{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
	{"/v1/plan", `{"env":"Ethernet","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`},
	{"/v1/plan", `{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}`},
	{"/v1/search", `{"env":"RoCE","nodes":4,"model":{"group":1}}`},
	{"/v1/simulate", `{"env":"Hybrid","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,"scenario":{"name":"snap","events":[{"kind":"degrade_nic","at":0.05,"node":0,"factor":0.6}]}}`},
}

// newSnapshotServer builds a pool-backed server without a listener.
func newSnapshotServer(tb testing.TB) (*serve.Pool, *Server) {
	tb.Helper()
	pool := serve.New(serve.Config{})
	return pool, NewServerPool(pool)
}

// driveCorpus answers the corpus through the handler and returns each
// response body.
func driveCorpus(tb testing.TB, srv *Server) []string {
	tb.Helper()
	handler := srv.Handler()
	out := make([]string, 0, len(snapshotCorpus))
	for _, c := range snapshotCorpus {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", c.path, rec.Code, rec.Body.String())
		}
		out = append(out, rec.Body.String())
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	pool1, srv1 := newSnapshotServer(t)
	want := driveCorpus(t, srv1)
	if st := pool1.ResponseCacheStats(); st.Size != len(snapshotCorpus) {
		t.Fatalf("seed server cached %d responses, want %d", st.Size, len(snapshotCorpus))
	}
	snap, err := srv1.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The envelope is well-formed and self-describing.
	var env snapshotEnvelope
	if err := json.Unmarshal(snap, &env); err != nil {
		t.Fatal(err)
	}
	if env.Format != SnapshotFormat || env.Version != SnapshotVersion || env.APIVersion != Version {
		t.Fatalf("envelope %s/%d/%s", env.Format, env.Version, env.APIVersion)
	}

	pool2, srv2 := newSnapshotServer(t)
	counts, err := srv2.LoadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Responses != len(snapshotCorpus) {
		t.Fatalf("loaded %d responses, want %d", counts.Responses, len(snapshotCorpus))
	}
	if counts.Plans == 0 {
		t.Fatal("loaded no plan-cache entries; the search-winner memo should be in the snapshot")
	}

	// The warm server answers the whole corpus from cache, byte-identical.
	got := driveCorpus(t, srv2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: warm response diverged from the recorded one:\nwarm %s\ncold %s",
				snapshotCorpus[i].path, got[i], want[i])
		}
	}
	st := pool2.ResponseCacheStats()
	if int(st.Hits) != len(snapshotCorpus) || st.Misses != 0 {
		t.Fatalf("warm server: %d hits, %d misses; want %d hits, 0 misses", st.Hits, st.Misses, len(snapshotCorpus))
	}
}

// TestSnapshotLoadIdempotent: loading the same snapshot twice re-keys
// through the normal LRU path, so nothing duplicates or errors.
func TestSnapshotLoadIdempotent(t *testing.T) {
	_, srv1 := newSnapshotServer(t)
	driveCorpus(t, srv1)
	snap, err := srv1.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool2, srv2 := newSnapshotServer(t)
	for i := 0; i < 2; i++ {
		if _, err := srv2.LoadSnapshot(snap); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	if st := pool2.ResponseCacheStats(); st.Size != len(snapshotCorpus) {
		t.Fatalf("double load left %d entries, want %d", st.Size, len(snapshotCorpus))
	}
}

// corruptSnapshot applies one named mutation to a valid snapshot.
func corruptSnapshot(t *testing.T, snap []byte, mutate func(env *snapshotEnvelope)) []byte {
	t.Helper()
	var env snapshotEnvelope
	if err := json.Unmarshal(snap, &env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSnapshotRejectsBadFiles(t *testing.T) {
	_, srv1 := newSnapshotServer(t)
	driveCorpus(t, srv1)
	snap, err := srv1.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(payload string) func(*snapshotEnvelope) {
		return func(env *snapshotEnvelope) {
			env.Payload = json.RawMessage(payload)
			env.Checksum = payloadChecksum(env.Payload)
		}
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "snapshot"},
		{"junk", []byte("not json"), "snapshot"},
		{"truncated", snap[:len(snap)/2], "snapshot"},
		{"unknown envelope field", []byte(`{"format":"holmes-cache-snapshot","version":1,"api_version":"` + Version + `","checksum_fnv64a":"0","payload":{},"extra":1}`), "unknown field"},
		{"wrong format", corruptSnapshot(t, snap, func(e *snapshotEnvelope) { e.Format = "holmes-other" }), "format"},
		{"wrong version", corruptSnapshot(t, snap, func(e *snapshotEnvelope) { e.Version = 99 }), "version 99"},
		{"api version skew", corruptSnapshot(t, snap, func(e *snapshotEnvelope) { e.APIVersion = "0.0.1" }), "API 0.0.1"},
		{"bad checksum", corruptSnapshot(t, snap, func(e *snapshotEnvelope) { e.Checksum = "deadbeefdeadbeef" }), "checksum"},
		{"payload not an object", corruptSnapshot(t, snap, reseal(`[1,2]`)), "payload"},
		{"unknown op", corruptSnapshot(t, snap, reseal(`{"responses":[{"op":"dance","config":{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2},"response":{}}]}`)), "unknown op"},
		{"bad config", corruptSnapshot(t, snap, reseal(`{"responses":[{"op":"plan","config":{"env":"Mars","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2},"response":{}}]}`)), "config"},
		{"unknown plan kind", corruptSnapshot(t, snap, reseal(`{"plans":[{"kind":"martian","key":{},"val":{}}]}`)), "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool, srv := newSnapshotServer(t)
			counts, err := srv.LoadSnapshot(tc.data)
			if err == nil {
				t.Fatalf("accepted %s (loaded %+v)", tc.name, counts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// A rejected snapshot loads nothing: the caches stay empty.
			if st := pool.ResponseCacheStats(); st.Size != 0 {
				t.Fatalf("rejected snapshot still stored %d responses", st.Size)
			}
			if entries := pool.Engine().PlanEntries(); len(entries) != 0 {
				t.Fatalf("rejected snapshot still stored %d plan entries", len(entries))
			}
		})
	}
}

// TestDrainMode: while draining, admission-gated routes shed with 429 +
// Retry-After, while the observability routes keep answering — the
// shutdown sequence relies on both halves.
func TestDrainMode(t *testing.T) {
	_, srv := newSnapshotServer(t)
	handler := srv.Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}
	planBody := snapshotCorpus[0].body

	srv.SetDraining(true)
	if !srv.Draining() {
		t.Fatal("Draining() false after SetDraining(true)")
	}
	rec := do(http.MethodPost, "/v1/plan", planBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("draining /v1/plan: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 429 carries no Retry-After")
	}
	if rec := do(http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("draining /healthz: status %d", rec.Code)
	}
	if rec := do(http.MethodGet, "/v1/stats", ""); rec.Code != http.StatusOK {
		t.Fatalf("draining /v1/stats: status %d", rec.Code)
	}

	srv.SetDraining(false)
	if rec := do(http.MethodPost, "/v1/plan", planBody); rec.Code != http.StatusOK {
		t.Fatalf("post-drain /v1/plan: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPprofMount: the profiling mux is operator-opt-in only.
func TestPprofMount(t *testing.T) {
	_, srv := newSnapshotServer(t)
	get := func(h http.Handler, path string) int {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := get(srv.Handler(), "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof mounted by default: status %d", code)
	}
	srv.EnablePprof(true)
	if code := get(srv.Handler(), "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof enabled but /debug/pprof/ answered %d", code)
	}
	if code := get(srv.Handler(), "/debug/pprof/symbol"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/symbol answered %d", code)
	}
}

// FuzzSnapshotDecode hardens the snapshot loader: arbitrary bytes must
// never panic it, and any rejected input must leave both caches
// untouched. The seed corpus (also committed under
// testdata/fuzz/FuzzSnapshotDecode) covers a structurally valid empty
// snapshot plus the rejection shapes.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fmt.Sprintf(
		`{"format":%q,"version":%d,"api_version":%q,"checksum_fnv64a":"08f44b07b5901a25","payload":{}}`,
		SnapshotFormat, SnapshotVersion, Version)
	seeds := []string{
		valid,
		`{"format":"holmes-other","version":1,"api_version":"` + Version + `","checksum_fnv64a":"0","payload":{}}`,
		`{"format":"holmes-cache-snapshot","version":2,"api_version":"` + Version + `","checksum_fnv64a":"0","payload":{}}`,
		`{"format":"holmes-cache-snapshot","version":1,"api_version":"9.9.9","checksum_fnv64a":"0","payload":{}}`,
		`{"format":"holmes-cache-snapshot"`,
		`{"payload":{"responses":[{"op":"plan","config":{},"response":{}}]}}`,
		`null`,
		`[]`,
		``,
		`{"format":"holmes-cache-snapshot","version":1,"api_version":"` + Version + `","checksum_fnv64a":"08f44b07b5901a25","payload":{},"x":1}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// One real snapshot with live entries, so mutations explore the
	// payload structure too.
	_, seedSrv := newSnapshotServer(f)
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(snapshotCorpus[0].body))
	rec := httptest.NewRecorder()
	seedSrv.Handler().ServeHTTP(rec, req)
	if rec.Code == http.StatusOK {
		if snap, err := seedSrv.SaveSnapshot(); err == nil {
			f.Add(snap)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("snapshot inputs beyond 1 MiB add nothing structurally")
		}
		pool, srv := newSnapshotServer(t)
		counts, err := srv.LoadSnapshot(data)
		st := pool.ResponseCacheStats()
		plans := pool.Engine().PlanEntries()
		if err != nil {
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatal("empty error message")
			}
			if st.Size != 0 || len(plans) != 0 {
				t.Fatalf("rejected input still stored %d responses, %d plans", st.Size, len(plans))
			}
			return
		}
		if counts.Responses != st.Size {
			t.Fatalf("reported %d responses loaded, cache holds %d", counts.Responses, st.Size)
		}
		if counts.Plans != len(plans) {
			t.Fatalf("reported %d plans loaded, cache holds %d", counts.Plans, len(plans))
		}
	})
}
