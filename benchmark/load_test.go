package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"holmes/benchmark/gen"
)

// An open loop must charge a server stall to every request due behind
// it: with one connection and a 200 ms stall on the first request, a
// request due 50 ms in still waits for the stall to end, and its
// latency from the intended send time shows that wait. The wait is
// connection wait, not timer lateness: the loop wakes on time.
func TestOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(200 * time.Millisecond) })
		_, _ = io.WriteString(w, "{}")
	}))
	defer srv.Close()
	var arr []gen.Arrival
	for i := range 30 {
		arr = append(arr, gen.Arrival{At: 0.010 * float64(i+1), Op: gen.Op{Path: "/", Body: []byte("{}")}})
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	res := openLoop(client, srv.URL, 1, arr, func(int, time.Duration) bool { return false }, func(int, gen.Op, int, []byte) error { return nil })
	if res.attempted != len(arr) || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d, 0", res.attempted, res.failed, len(arr))
	}
	// Requests finish in dispatch order over the one connection, so
	// res.lat[i] belongs to arrival i.
	for i := 1; i < 10; i++ {
		due := time.Duration(float64(time.Second) * arr[i].At)
		stallEnd := time.Duration(float64(time.Second)*arr[0].At) + 200*time.Millisecond
		if want := stallEnd - due - 20*time.Millisecond; res.lat[i] < want {
			t.Errorf("request due at %v took %v; the stall should charge it at least %v", due, res.lat[i], want)
		}
	}
	lateP99 := quantile(millis(res.late), 0.99)
	waitMax := quantile(millis(res.connWait), 1)
	if waitMax < 150 {
		t.Errorf("largest connection wait %.1f ms; the stall should show as connection wait", waitMax)
	}
	if lateP99 > 50 {
		t.Errorf("timer lateness p99 %.1f ms; the loop should not wait on the connection", lateP99)
	}
}

// A step meets the latency limit while most of its windows do: a stall
// that sinks one window leaves the step passing, and once a majority of
// windows have more than 1% of their requests past the limit the step
// has failed and may be cut short.
func TestLimitJudgeNeedsMostWindows(t *testing.T) {
	var arr []gen.Arrival
	for i := range 500 {
		arr = append(arr, gen.Arrival{At: float64(i) / 500})
	}
	j := newLimitJudge(arr, 1)
	slow, fast := latencyLimit+time.Millisecond, latencyLimit
	// Window 0 holds arrivals 0-99: one slow request is within its 1%,
	// a second is not.
	for i, lat := range []time.Duration{slow, fast, slow} {
		if j.record(i, lat) {
			t.Fatalf("request %d: one window past the limit stopped the step", i)
		}
	}
	if !j.met() {
		t.Fatal("one window past the limit failed the step")
	}
	j.record(100, slow)
	j.record(101, slow)
	if !j.met() {
		t.Fatal("two of five windows past the limit failed the step")
	}
	j.record(450, slow)
	if !j.record(451, slow) || j.met() {
		t.Fatal("three of five windows past the limit still pass")
	}
}

// A closed loop counts every kind of failure against the requests
// attempted: a non-2xx status, a transport error, and an answer the
// check rejects.
func TestClosedLoopCountsEveryFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ I int }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		switch req.I % 4 {
		case 0:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case 1:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case 2:
			_, _ = io.WriteString(w, "wrong")
		default:
			_, _ = io.WriteString(w, "right")
		}
	}))
	defer srv.Close()
	next := 0
	client := newClient(2)
	defer client.CloseIdleConnections()
	res := closedLoop(client, srv.URL, 2, 40, func() (gen.Op, bool) {
		next++
		return gen.Op{Path: "/", Body: []byte(fmt.Sprintf(`{"I":%d}`, next-1))}, true
	}, func(_ int, _ gen.Op, _ int, body []byte) error {
		if string(body) != "right" {
			return errors.New("answer mismatch")
		}
		return nil
	})
	if res.attempted != 40 || res.failed != 30 {
		t.Fatalf("attempted %d, failed %d; want 40 attempted, 30 failed", res.attempted, res.failed)
	}
	if got := ratio(float64(res.failed), float64(res.attempted)); got != 0.75 {
		t.Fatalf("failed ratio %v, want 0.75", got)
	}
	if len(res.lat) != res.attempted {
		t.Fatalf("%d latencies for %d attempts", len(res.lat), res.attempted)
	}
}

// A stall that falls in a minority of slices leaves the median of the
// slices' latency percentiles and rates where the rest of the run puts
// them; a slowdown across the whole run moves them.
func TestSliceMediansKeepStallsLocal(t *testing.T) {
	// 1000 requests of 1 ms each, finishing back to back, cut into ten
	// slices; run returns the medians over the slices.
	run := func(lat func(i int) time.Duration) (p95, rate float64) {
		var lats, done []time.Duration
		at := time.Duration(0)
		for i := range 1000 {
			at += lat(i)
			lats, done = append(lats, lat(i)), append(done, at)
		}
		var p percentiles
		var rates []float64
		for k := range 10 {
			p.add(slice(lats, k, 10))
			rates = append(rates, sliceRate(slice(done, k, 10)))
		}
		return quantile(p.p95, 0.5), quantile(rates, 0.5)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-6*b }
	p95, rate := run(func(int) time.Duration { return time.Millisecond })
	if !near(p95, 1) || !near(rate, 1000) {
		t.Fatalf("steady run: p95 %v ms, rate %v/s; want 1 ms, 1000/s", p95, rate)
	}
	// A 50 ms stall on every tenth request of the third and fourth slices.
	p95, rate = run(func(i int) time.Duration {
		if i >= 200 && i < 400 && i%10 == 0 {
			return 50 * time.Millisecond
		}
		return time.Millisecond
	})
	if !near(p95, 1) || !near(rate, 1000) {
		t.Fatalf("stalls in two slices: p95 %v ms, rate %v/s; want 1 ms, 1000/s", p95, rate)
	}
	p95, rate = run(func(int) time.Duration { return 2 * time.Millisecond })
	if !near(p95, 2) || !near(rate, 500) {
		t.Fatalf("run slowed throughout: p95 %v ms, rate %v/s; want 2 ms, 500/s", p95, rate)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
