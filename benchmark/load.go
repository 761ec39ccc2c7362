package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"holmes/benchmark/gen"
)

// newClient returns an HTTP client that holds at most conns connections
// to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole answer.
func post(client *http.Client, base string, op gen.Op) (int, []byte, error) {
	resp, err := client.Post(base+op.Path, "application/json", bytes.NewReader(op.Body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkFunc validates one answer; i is the request's position in send
// order (closed loop) or in the arrival schedule (open loop).
type checkFunc func(i int, op gen.Op, status int, body []byte) error

// loopResult is what a load driver measured. A request fails when the
// transport fails, the status is not 200, or the answer check rejects
// it; every failure counts against the requests attempted.
type loopResult struct {
	lat       []time.Duration // one per attempted request
	done      []time.Duration // closed loop: when each request finished, from the start
	attempted int
	failed    int
	firstFail string
	elapsed   time.Duration
	// Open loop only: how late the loop woke for each request it slept
	// for, how long each request waited for a free connection after it
	// was due, and whether the schedule was cut short.
	late     []time.Duration
	connWait []time.Duration
	aborted  bool
}

// record adds one finished request.
func (r *loopResult) record(lat time.Duration, err error) {
	r.lat = append(r.lat, lat)
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = err.Error()
		}
	}
}

// send posts one request and applies the answer check.
func send(client *http.Client, base string, i int, op gen.Op, check checkFunc) error {
	status, body, err := post(client, base, op)
	if err != nil {
		return fmt.Errorf("%s: %w", op.Path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", op.Path, status, body)
	}
	return check(i, op, status, body)
}

// closedLoop runs conns clients that send n requests in all. Each
// client sends its next request the moment its previous answer has
// arrived, so a slower server receives less load. next hands out the
// requests in order; it running dry ends the loop early.
func closedLoop(client *http.Client, base string, conns, n int, next func() (gen.Op, bool), check checkFunc) loopResult {
	var (
		mu    sync.Mutex
		res   loopResult
		taken int
		wg    sync.WaitGroup
	)
	take := func() (int, gen.Op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if taken >= n {
			return 0, gen.Op{}, false
		}
		op, ok := next()
		if !ok {
			return 0, gen.Op{}, false
		}
		taken++
		return taken - 1, op, true
	}
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, op, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				err := send(client, base, i, op, check)
				lat := time.Since(t0)
				mu.Lock()
				res.record(lat, err)
				res.done = append(res.done, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// sleepUntil blocks the calling goroutine's thread until t with
// nanosleep. On the reference host time.Sleep wakes about a millisecond
// late from any wait shorter than that, nanosleep about 60 µs late; at
// open-loop rates of a thousand requests a second the first would be a
// load generator that runs most of a millisecond behind its schedule.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// openLoop sends every arrival at its scheduled instant, whatever the
// state of earlier requests, over conns connections that each carry one
// request at a time. Each connection takes the next arrival in schedule
// order, sleeps until it is due, or sends it at once when it is already
// overdue. Latency runs from the intended send time, so a stall charges
// its wait to every request queued behind it instead of hiding it
// (coordinated omission). Timer lateness — how late a sleeping
// connection woke — and connection wait — how long a due request waited
// for a free connection — are reported apart. stop sees each finished
// request's arrival index and latency, one at a time; once it returns
// true the rest of the schedule is dropped unsent (a step that has
// already failed need not finish).
func openLoop(client *http.Client, base string, conns int, arrivals []gen.Arrival, stop func(i int, lat time.Duration) bool, check checkFunc) loopResult {
	var (
		mu      sync.Mutex
		res     loopResult
		next    int
		aborted bool
		wg      sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if aborted || next == len(arrivals) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				due := start.Add(time.Duration(arrivals[i].At * float64(time.Second)))
				free := time.Now()
				var late, wait time.Duration
				if d := due.Sub(free); d > 0 {
					sleepUntil(due)
					late = time.Since(due)
				} else {
					wait = -d
				}
				err := send(client, base, i, arrivals[i].Op, check)
				lat := time.Since(due)
				mu.Lock()
				res.record(lat, err)
				res.late = append(res.late, late)
				res.connWait = append(res.connWait, wait)
				if stop(i, lat) {
					aborted = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.aborted = aborted
	return res
}
