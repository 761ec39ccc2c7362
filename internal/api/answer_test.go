package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"holmes/internal/serve"
)

// A deterministic endpoint answers a repeated body its stored bytes, and
// the same config reformatted the bytes of its canonical answer: for
// each, the first computation, its repeat and the reformatted variant
// answer the same bytes, and each answer counts exactly one response-
// cache lookup — a miss the first time, a hit every later time —
// whichever key answers it. A body's bytes are stored on its second
// sighting, so one sent once holds its canonical answer alone.

// reformatted is a config of each deterministic endpoint in two wire
// forms: compact, and with other whitespace and another key order. A
// batch answers one per item.
var reformatted = []struct {
	ep, path, body, variant string
	answers                 int
}{
	{epPlan, "/v1/plan",
		`{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`,
		"{\n  \"pipeline_size\": 2,\n  \"tensor_size\": 1,\n  \"model\": {\"group\": 1},\n  \"nodes\": 4,\n  \"env\": \"InfiniBand\"\n}\n", 1},
	{epSimulate, "/v1/simulate",
		batchSimulateCfg,
		` { "scenario":{"events":[{"factor":0.5,"node":0,"at":0,"kind":"degrade_nic"}],"name":"b"}, "pipeline_size":2,"tensor_size":1, "model":{"group":1},"nodes":4,"env":"InfiniBand" } `, 1},
	{epSearch, "/v1/search",
		`{"env":"RoCE","nodes":4,"model":{"group":1}}`,
		"{\"model\":{\"group\":1},\t\"nodes\":4,\t\"env\":\"RoCE\"}", 1},
	{epBatch, "/v1/plan/batch",
		`{"items":[{"op":"plan","config":{"env":"Ethernet","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}},{"op":"search","config":{"env":"RoCE","nodes":4,"model":{"group":1}}}]}`,
		`{ "items": [ { "config": { "pipeline_size": 2, "tensor_size": 1, "model": { "group": 1 }, "nodes": 4, "env": "Ethernet" }, "op": "plan" }, {"config":{"model":{"group":1},"nodes":4,"env":"RoCE"},"op":"search"} ] }`, 2},
}

// serveOnce answers one request in process.
func serveOnce(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func TestRepeatAnswersStoredBytes(t *testing.T) {
	for _, c := range reformatted {
		t.Run(c.path, func(t *testing.T) {
			pool, srv := newSnapshotServer(t, 1)
			h := srv.Handler()
			n := uint64(c.answers)
			var first []byte
			// The first body computes; its repeat and the variant's first
			// copy take the typed path to canonical hits and store their
			// bytes; the variant's repeat is answered its stored bytes.
			for i, body := range []string{c.body, c.body, c.variant, c.variant} {
				before := pool.ResponseCacheStats()
				rec := serveOnce(h, http.MethodPost, c.path, body)
				if rec.Code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("request %d: content-type %q", i, ct)
				}
				after := pool.ResponseCacheStats()
				hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
				if i == 0 {
					first = rec.Body.Bytes()
					if hits != 0 || misses != n {
						t.Fatalf("first request counted %d hits, %d misses; want 0, %d", hits, misses, n)
					}
					if after.Size != c.answers {
						t.Fatalf("a body sent once left %d answers, want its %d canonical ones", after.Size, c.answers)
					}
					continue
				}
				if !bytes.Equal(rec.Body.Bytes(), first) {
					t.Fatalf("request %d answered other bytes than the first:\n%s\nvs\n%s", i, rec.Body, first)
				}
				if hits != n || misses != 0 {
					t.Fatalf("request %d counted %d hits, %d misses; want %d, 0", i, hits, misses, n)
				}
			}
			ep := pool.Stats().Snapshot().Endpoints[c.ep]
			if ep.Requests != 4 || ep.Cached != 3*n {
				t.Fatalf("endpoint counters: %+v", ep)
			}
			// The canonical answers and two stored bodies, each weighing
			// the answers it encodes.
			if st := pool.ResponseCacheStats(); st.Size != 3*c.answers {
				t.Fatalf("cache holds %d answers, want %d", st.Size, 3*c.answers)
			}
		})
	}
}

// A run of distinct bodies never hits — what the response-cache hit
// ratio of a workload without repeats must read — and stores no bytes.
func TestDistinctBodiesNeverHit(t *testing.T) {
	pool, srv := newSnapshotServer(t, 1)
	h := srv.Handler()
	for _, env := range []string{"InfiniBand", "RoCE", "Ethernet"} {
		for p := 1; p <= 2; p++ {
			body := fmt.Sprintf(`{"env":%q,"nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":%d}`, env, p)
			if rec := serveOnce(h, http.MethodPost, "/v1/plan", body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
		}
	}
	if st := pool.ResponseCacheStats(); st.Hits != 0 || st.Misses != 6 || st.Size != 6 {
		t.Fatalf("six distinct bodies counted %d hits, %d misses, %d answers held; want 0, 6, 6", st.Hits, st.Misses, st.Size)
	}
}

// A batch with a failed item is never stored under its digest: decision
// 8 caches no error, so its repeat runs again — the feasible item from
// its canonical entry, the failed one from scratch — and answers the
// same bytes.
func TestBatchWithItemErrorIsRecomputed(t *testing.T) {
	pool, srv := newSnapshotServer(t, 1)
	h := srv.Handler()
	body := fmt.Sprintf(`{"items":[{"op":"plan","config":%s},{"op":"plan","config":%s}]}`,
		`{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`, batchInfeasibleCfg)
	first := serveOnce(h, http.MethodPost, "/v1/plan/batch", body)
	if first.Code != http.StatusOK || !strings.Contains(first.Body.String(), `"errors": 1`) {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	for i := 0; i < 2; i++ {
		before := pool.ResponseCacheStats()
		again := serveOnce(h, http.MethodPost, "/v1/plan/batch", body)
		if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("repeat %d answered other bytes:\n%s\nvs\n%s", i, again.Body, first.Body)
		}
		after := pool.ResponseCacheStats()
		if after.Hits-before.Hits != 1 || after.Misses-before.Misses != 1 {
			t.Fatalf("repeat %d counted %d hits, %d misses; want 1 (the feasible item), 1 (the failed one)",
				i, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		if after.Size != 1 {
			t.Fatalf("cache holds %d answers, want only the feasible item's", after.Size)
		}
	}
}

// Formatting variants of one config cannot grow the cache past its one
// bound: every variant's stored bytes weigh an answer, and they evict
// one another, never the canonical answer they encode.
func TestFormattingVariantsStayWithinBound(t *testing.T) {
	const bound = 4
	pool := serve.New(serve.Config{ResponseCache: bound})
	h := NewServerPool(pool).Handler()
	var first []byte
	for n := 0; n < 12; n++ {
		body := strings.Repeat(" ", n) + `{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`
		rec := serveOnce(h, http.MethodPost, "/v1/plan", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", n, rec.Code, rec.Body)
		}
		if n == 0 {
			first = rec.Body.Bytes()
		} else if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Fatalf("variant %d answered other bytes", n)
		}
		if st := pool.ResponseCacheStats(); st.Size > bound {
			t.Fatalf("after variant %d the cache holds %d answers over its bound of %d", n, st.Size, bound)
		}
	}
	st := pool.ResponseCacheStats()
	if st.Evictions == 0 || st.Misses != 1 {
		t.Fatalf("twelve variants under a bound of %d: %+v; want evictions and only the first computing", bound, st)
	}
	if es := pool.ResponseEntries(); len(es) != 1 {
		t.Fatalf("canonical entries %d, want the one answer", len(es))
	}
}

// Stored bytes take only the room canonical answers leave free, so a
// working set of repeated bodies between half the bound and the bound —
// which would not fit at two entries per body — computes each answer
// once and keeps every one.
func TestWorkingSetWithinBoundNeverRecomputes(t *testing.T) {
	const bound, bodies = 8, 6
	pool := serve.New(serve.Config{ResponseCache: bound})
	h := NewServerPool(pool).Handler()
	for round := 0; round < 4; round++ {
		for i := 0; i < bodies; i++ {
			env := []string{"InfiniBand", "RoCE", "Ethernet"}[i%3]
			body := fmt.Sprintf(`{"env":%q,"nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":%d}`, env, 1+i/3)
			if rec := serveOnce(h, http.MethodPost, "/v1/plan", body); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
		}
	}
	if st := pool.ResponseCacheStats(); st.Misses != bodies || st.Size > bound {
		t.Fatalf("%d bodies four times under a bound of %d: %+v; want %d misses", bodies, bound, st, bodies)
	}
	if es := pool.ResponseEntries(); len(es) != bodies {
		t.Fatalf("canonical entries %d, want %d", len(es), bodies)
	}
}

// A batch's stored bytes weigh one answer per item, so reorderings of
// one batch — each a new body, answered from canonical hits — hold at
// most the answers the bound leaves beside the items' canonical ones,
// and never evict those.
func TestReorderedBatchesStayWithinBound(t *testing.T) {
	const items, bound = 4, 3 * 4
	pool := serve.New(serve.Config{ResponseCache: bound})
	h := NewServerPool(pool).Handler()
	var cfgs []string
	for _, env := range []string{"InfiniBand", "RoCE", "Ethernet", "Hybrid"} {
		cfgs = append(cfgs, fmt.Sprintf(`{"op":"plan","config":{"env":%q,"nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}}`, env))
	}
	// Every rotation of the items, forwards and backwards: eight bodies.
	for r := 0; r < 2*items; r++ {
		order := make([]string, items)
		for i := range order {
			j := i
			if r >= items {
				j = items - 1 - i
			}
			order[i] = cfgs[(j+r)%items]
		}
		before := pool.ResponseCacheStats()
		rec := serveOnce(h, http.MethodPost, "/v1/plan/batch", `{"items":[`+strings.Join(order, ",")+`]}`)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"errors": 0`) {
			t.Fatalf("order %d: status %d: %.300s", r, rec.Code, rec.Body)
		}
		st := pool.ResponseCacheStats()
		if st.Size > bound {
			t.Fatalf("order %d: the cache holds %d answers over its bound of %d", r, st.Size, bound)
		}
		if r > 0 && (st.Hits-before.Hits != items || st.Misses != items) {
			t.Fatalf("order %d counted %d hits, %d misses in all; want %d hits, %d misses in all",
				r, st.Hits-before.Hits, st.Misses, items, items)
		}
	}
	if st := pool.ResponseCacheStats(); st.Evictions == 0 {
		t.Fatalf("eight orders under a bound of %d evicted nothing: %+v", bound, st)
	}
	if es := pool.ResponseEntries(); len(es) != items {
		t.Fatalf("canonical entries %d, want the %d items'", len(es), items)
	}
}

// An answer served from its stored bytes is as recent as its last use:
// a hot body answered from its digest after two cold bodies is the most
// recent answer in a snapshot, which holds canonical entries only and
// loads back into a server that answers the hot body the same bytes.
func TestDigestHitKeepsAnswerRecent(t *testing.T) {
	pool := serve.New(serve.Config{ResponseCache: 4})
	srv := NewServerPool(pool)
	h := srv.Handler()
	plan := func(env string) string {
		return fmt.Sprintf(`{"env":%q,"nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`, env)
	}
	hot := plan("InfiniBand")
	var want string
	for _, body := range []string{hot, hot, hot, plan("Ethernet"), plan("RoCE"), hot} {
		rec := serveOnce(h, http.MethodPost, "/v1/plan", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		if body == hot {
			want = rec.Body.String()
		}
	}
	snap, err := srv.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	var payload snapshotPayload
	if err := json.Unmarshal(snap, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		t.Fatal(err)
	}
	if env.Format != SnapshotFormat || env.Version != SnapshotVersion {
		t.Fatalf("envelope %s/%d", env.Format, env.Version)
	}
	var order []string
	for _, r := range payload.Responses {
		var c struct{ Env string }
		if err := json.Unmarshal(r.Config, &c); err != nil {
			t.Fatal(err)
		}
		order = append(order, c.Env)
	}
	if strings.Join(order, ",") != "Ethernet,RoCE,InfiniBand" {
		t.Fatalf("snapshot answers least recent first: %v; want the hot InfiniBand plan last", order)
	}

	pool2 := serve.New(serve.Config{ResponseCache: 4})
	srv2 := NewServerPool(pool2)
	if counts, err := srv2.LoadSnapshot(snap); err != nil || counts.Responses != 3 {
		t.Fatalf("loaded %+v, %v; want the 3 canonical answers", counts, err)
	}
	if rec := serveOnce(srv2.Handler(), http.MethodPost, "/v1/plan", hot); rec.Body.String() != want {
		t.Fatalf("warm server answered other bytes:\n%s\nvs\n%s", rec.Body, want)
	}
	if st := pool2.ResponseCacheStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm server: %+v; want the hot body a hit", st)
	}
}
