package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"holmes/benchmark/gen"
)

// cacheCounters is a cache block of GET /v1/stats.
type cacheCounters struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// daemonStats is the part of GET /v1/stats the per-layer counters read.
type daemonStats struct {
	Rejected  uint64        `json:"rejected"`
	Cache     cacheCounters `json:"cache"`
	PlanCache cacheCounters `json:"plan_cache"`
	Responses cacheCounters `json:"responses"`
	Search    struct {
		Searches  uint64 `json:"searches"`
		Simulated uint64 `json:"simulated"`
		Pruned    uint64 `json:"pruned"`
		Aborted   uint64 `json:"aborted"`
	} `json:"search"`
	Serve struct {
		Endpoints map[string]struct {
			Requests  uint64 `json:"requests"`
			Coalesced uint64 `json:"coalesced"`
		} `json:"endpoints"`
	} `json:"serve"`
}

func (d *daemon) stats(client *http.Client) (daemonStats, error) {
	var s daemonStats
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// counterLayers derives the exact per-layer counts of the timed phase
// from the daemon's counters before and after it.
func counterLayers(before, after daemonStats, layer map[string]float64) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	hitRatio := func(a, b cacheCounters) float64 {
		return ratio(d(a.Hits, b.Hits), d(a.Hits, b.Hits)+d(a.Misses, b.Misses))
	}
	var reqs, coalesced float64
	for _, ep := range []string{"plan", "plan_batch", "search", "simulate"} {
		a, b := before.Serve.Endpoints[ep], after.Serve.Endpoints[ep]
		reqs += d(a.Requests, b.Requests)
		coalesced += d(a.Coalesced, b.Coalesced)
	}
	layer["serve.response_hit_ratio"] = hitRatio(before.Responses, after.Responses)
	layer["serve.coalesced_ratio"] = ratio(coalesced, reqs)
	layer["serve.rejected_ratio"] = ratio(d(before.Rejected, after.Rejected), reqs)
	layer["engine.world_hit_ratio"] = hitRatio(before.Cache, after.Cache)
	layer["engine.plan_cache_hit_ratio"] = hitRatio(before.PlanCache, after.PlanCache)
	searchLayers(d(before.Search.Searches, after.Search.Searches), d(before.Search.Simulated, after.Search.Simulated),
		d(before.Search.Pruned, after.Search.Pruned), d(before.Search.Aborted, after.Search.Aborted), layer)
}

// searchLayers turns search-counter deltas into per-cell outcome ratios.
func searchLayers(searches, simulated, pruned, aborted float64, layer map[string]float64) {
	cells := simulated + pruned + aborted
	layer["core.simulated_ratio"] = ratio(simulated, cells)
	layer["core.pruned_ratio"] = ratio(pruned, cells)
	layer["core.aborted_ratio"] = ratio(aborted, cells)
	layer["core.cells_per_search"] = ratio(cells, searches)
}

// latencyMetrics fills the latency end-to-end metrics from per-request
// latencies, with the p99 and the sample count for the result file.
func latencyMetrics(o *outcome, lat []time.Duration) {
	ms := millis(lat)
	o.E2E["latency_p50_ms"] = quantile(ms, 0.5)
	o.E2E["latency_p95_ms"] = quantile(ms, 0.95)
	o.Extra["latency_p99_ms"] = quantile(ms, 0.99)
	o.Extra["latency_samples"] = float64(len(ms))
}

// daemonBoots is how many times an untraced run boots the daemon. A boot
// takes a few milliseconds, so a single boot is at the mercy of the
// host's scheduler; the run reports the median of many.
const daemonBoots = 21

// bootFor boots the daemon for a run: daemonBoots boots and their median
// on an untraced run, one boot on a traced run (which reports no set-up
// time).
func bootFor(e *env, o *outcome) (*daemon, error) {
	boots := daemonBoots
	if e.trace {
		boots = 1
	}
	t0 := time.Now()
	d, setup, err := bootMedian(e.daemon, boots)
	if err != nil {
		return nil, err
	}
	o.E2E["setup_s"] = setup
	o.Counts["boots"] = boots
	o.Phases["boot"] = time.Since(t0).Seconds()
	return d, nil
}

// stopAndMeasure records the daemon's peak RSS, then stops it.
func stopAndMeasure(d *daemon, o *outcome) error {
	rss, err := d.peakRSS()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	o.E2E["peak_rss_mb"] = rss
	return err
}

// Closed-loop workloads do a fixed amount of work per run: whole
// rounds of their stratified streams, as many as fit the run's seconds
// at the pace the workload keeps on the reference host (README.md).
// Both sides of a comparison therefore answer exactly the same requests,
// and every answer enters the digest.
const (
	coldSearchRoundSeconds  = 5.0 // one round: 67 searches
	scenarioSimRoundSeconds = 6.5 // one round: 268 simulations
)

// rounds is the number of whole rounds a run of the given seconds does.
func rounds(seconds, perRound float64) int {
	return max(1, int(math.Round(seconds/perRound)))
}

func runColdSearch(e *env) (*outcome, error) {
	return runClosed(e, coldSearchRoundSeconds, func() (func() (gen.Op, bool), int) {
		s := gen.NewColdSearch(e.seed)
		return s.Next, s.Round()
	})
}

func runScenarioSim(e *env) (*outcome, error) {
	return runClosed(e, scenarioSimRoundSeconds, func() (func() (gen.Op, bool), int) {
		s := gen.NewScenarioSim(e.seed)
		return s.Next, s.Round()
	})
}

// runClosed runs a closed-loop daemon workload: one client over whole
// rounds of the stream. A traced run drives half the rounds against the
// daemon and replays the stream through the traced pass for the other
// half of its seconds.
func runClosed(e *env, roundSeconds float64, stream func() (func() (gen.Op, bool), int)) (*outcome, error) {
	o := newOutcome()
	d, err := bootFor(e, o)
	if err != nil {
		return nil, err
	}
	client := newClient(clientConns)
	defer client.CloseIdleConnections()
	measure := e.seconds
	if e.trace {
		measure /= 2
	}
	next, round := stream()
	n := rounds(measure, roundSeconds) * round
	before, err := d.stats(client)
	if err != nil {
		d.stop()
		return nil, err
	}
	answers := newAnswerLog(n)
	res := closedLoop(client, d.base, clientConns, n, next, answers.checker())
	after, err := d.stats(client)
	if err != nil {
		d.stop()
		return nil, err
	}
	if err := stopAndMeasure(d, o); err != nil {
		return nil, err
	}
	o.absorb(res)
	if res.attempted < n {
		o.problem("the input stream ran dry after %d of %d requests; this run length needs more distinct inputs than the generator has", res.attempted, n)
	}
	o.Phases["measure"] = res.elapsed.Seconds()
	o.Counts["requests"] = res.attempted
	o.Counts["rounds"] = n / round
	o.Counts["clients"] = clientConns
	latencyMetrics(o, res.lat)
	throughput := float64(res.attempted-res.failed) / res.elapsed.Seconds()
	o.E2E["throughput_ops_s"] = throughput
	if o.Digest, err = answers.digest(); err != nil {
		o.problem("%v", err)
	}
	counterLayers(before, after, o.Layer)
	// A closed-loop client waits only for its own previous answer.
	o.Layer["loadgen.timer_late_p99_ms"] = 0
	o.Layer["loadgen.conn_wait_p99_ms"] = 0
	if e.trace {
		next, _ := stream()
		ops := make([]gen.Op, 0, n)
		for range n {
			op, ok := next()
			if !ok {
				break
			}
			ops = append(ops, op)
		}
		if err := tracedPass(e, ops, e.seconds-measure, throughput, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Serve-mix measures serveSegments daemon processes in turn, each booted
// fresh and warmed up, because on the reference host one process answered
// the same requests up to a fifth faster or slower than the next. Each
// segment runs an open-loop phase at a fixed rate, its share of a quarter
// of the run's seconds, timed from the intended send time, then a
// closed-loop phase of its share of closedOpsPerSecond requests for each
// second of the run, cut into slices of requests. The run's bounded
// metrics are the medians over every segment's closed-loop slices of each
// slice's percentiles and rate: on a shared host the open loop's tail
// follows the host's stalls, each of which queues every request due
// during it, so the medians of its phases' percentiles are recorded in
// the result file beside them. A capacity ladder follows on the last
// daemon; its steps, each 5% of the seconds, meet the latency limit or
// fail, and the fixed-rate phases are its first rung when they all meet
// the limit. The capacity it finds moves with every stall too (README.md),
// so it is recorded but bounds nothing.
const (
	serveSegments      = 5
	serveRate          = 1000.0 // req/s of the fixed-rate phases
	closedOpsPerSecond = 1500.0
	rateSlices         = 2      // slices per closed-loop phase
	ladderStart        = 1000.0 // req/s of the first ladder step when the fixed rate misses the limit
	ladderGrowth       = 1.5
	ladderPrecision    = 1.05 // stop once fail/pass rates are this close
	ladderMaxSteps     = 10
	latencyLimit       = 10 * time.Millisecond // p99 limit, from intended send
	stepWindows        = 5                     // windows a step is judged in
)

// limitJudge decides whether an open-loop step meets the latency limit.
// The step is cut by intended send time into stepWindows equal windows.
// A window misses the limit when more than 1% of its requests take longer
// than latencyLimit, that is when its p99 is past the limit, and the step
// meets the limit when most of its windows do. One stall of the shared
// host sinks the windows it falls in; judged by a single p99 it would
// sink the whole step, so the capacity found would follow the host's
// stalls rather than the daemon. A rate past capacity builds a backlog
// that sinks every window after it starts.
type limitJudge struct {
	window []int  // window of each arrival
	due    []int  // arrivals per window
	slow   []int  // requests past the limit, per window
	missed []bool // windows past the limit
	misses int
}

func newLimitJudge(arr []gen.Arrival, seconds float64) *limitJudge {
	j := &limitJudge{
		window: make([]int, len(arr)), due: make([]int, stepWindows),
		slow: make([]int, stepWindows), missed: make([]bool, stepWindows),
	}
	for i, a := range arr {
		w := min(int(a.At/seconds*stepWindows), stepWindows-1)
		j.window[i] = w
		j.due[w]++
	}
	return j
}

// record adds one finished request of arrival i and reports whether the
// step can no longer meet the limit.
func (j *limitJudge) record(i int, lat time.Duration) bool {
	if w := j.window[i]; lat > latencyLimit {
		j.slow[w]++
		if !j.missed[w] && j.slow[w]*100 > j.due[w] {
			j.missed[w] = true
			j.misses++
		}
	}
	return !j.met()
}

// met reports whether most windows are within the limit so far.
func (j *limitJudge) met() bool { return 2*j.misses < stepWindows }

// serveMix is the state of one serve-mix run across its segments.
type serveMix struct {
	e      *env
	o      *outcome
	mix    *gen.ServeMix
	hot    []gen.Op
	client *http.Client
	warm   [][]byte    // the first answer to each hot request
	open   percentiles // of each fixed-rate phase
	closed percentiles // of each closed-loop slice
	rates  []float64   // of each closed-loop slice
	rss    []float64   // each daemon's peak RSS, MiB
	fixed  loopResult
	met    bool     // every fixed-rate phase met the latency limit
	traced []gen.Op // the requests the traced pass replays
}

// check validates an answer to arrival i of arr: a hot request must
// repeat its first answer byte for byte, in any segment.
func (m *serveMix) check(arr []gen.Arrival) checkFunc {
	return func(i int, op gen.Op, _ int, body []byte) error {
		if h := arr[i].Hot; h >= 0 {
			if !bytes.Equal(body, m.warm[h]) {
				return fmt.Errorf("hot request %d answered other bytes than its first answer", h)
			}
			return nil
		}
		_, err := canonical(op.Want, body)
		return err
	}
}

// segment runs segment s on daemon d: the untimed warm-up, which touches
// every hot request once, then the fixed-rate and closed-loop phases.
func (m *serveMix) segment(s, segments int, d *daemon) error {
	o := m.o
	lines := make([]string, len(m.hot))
	next := 0
	t0 := time.Now()
	wres := closedLoop(m.client, d.base, clientConns, len(m.hot), func() (gen.Op, bool) {
		next++
		return m.hot[next-1], true
	}, func(i int, op gen.Op, _ int, body []byte) error {
		if s > 0 {
			if !bytes.Equal(body, m.warm[i]) {
				return fmt.Errorf("hot request %d answered other bytes than in the first segment", i)
			}
			return nil
		}
		c, err := canonical(op.Want, body)
		m.warm[i], lines[i] = body, c
		return err
	})
	o.absorb(wres)
	o.Phases["warmup"] += time.Since(t0).Seconds()
	if s == 0 {
		o.Digest = digest(lines)
	}

	seconds := 0.25 * m.e.seconds / float64(segments)
	before, err := d.stats(m.client)
	if err != nil {
		return err
	}
	arr := m.mix.Arrivals(uint64(1+2*s), serveRate, seconds)
	judge := newLimitJudge(arr, seconds)
	overloaded := 0
	res := openLoop(m.client, d.base, clientConns, arr, func(i int, lat time.Duration) bool {
		judge.record(i, lat)
		if lat > time.Second {
			overloaded++
		}
		return overloaded > len(arr)/20
	}, m.check(arr))
	after, err := d.stats(m.client)
	if err != nil {
		return err
	}
	o.absorb(res)
	o.Phases["fixed_rate"] += res.elapsed.Seconds()
	o.Counts["fixed_rate_requests"] += res.attempted
	if res.aborted {
		o.problem("the %.0f req/s phase of segment %d overloaded the daemon and was cut short", serveRate, s)
	}
	m.met = m.met && !res.aborted && res.failed == 0 && judge.met()
	m.open.add(res.lat)
	m.fixed.late = append(m.fixed.late, res.late...)
	m.fixed.connWait = append(m.fixed.connWait, res.connWait...)
	if s == 0 {
		counterLayers(before, after, o.Layer)
	}

	// Closed-loop phase: a fixed count of requests of the same mix, sent
	// as fast as the connection carries them.
	closed := m.mix.Arrivals(uint64(2+2*s), closedOpsPerSecond, m.e.seconds/float64(segments))
	k := 0
	sat := closedLoop(m.client, d.base, clientConns, len(closed), func() (gen.Op, bool) {
		k++
		return closed[k-1].Op, true
	}, m.check(closed))
	o.absorb(sat)
	o.Phases["closed_loop"] += sat.elapsed.Seconds()
	o.Counts["closed_loop_requests"] += sat.attempted
	for k := range rateSlices {
		m.closed.add(slice(sat.lat, k, rateSlices))
		m.rates = append(m.rates, sliceRate(slice(sat.done, k, rateSlices)))
	}
	if s == 0 {
		// The traced pass replays the warm-up and as many requests of the
		// closed-loop phase, whose untraced rate is its reference, as the
		// fixed-rate phase sent; the whole phase would make a trace file of
		// tens of megabytes.
		m.traced = append([]gen.Op(nil), m.hot...)
		for _, a := range closed[:min(len(arr), len(closed))] {
			m.traced = append(m.traced, a.Op)
		}
	}
	rss, err := d.peakRSS()
	m.rss = append(m.rss, rss)
	return err
}

func runServeMix(e *env) (*outcome, error) {
	o := newOutcome()
	mix := gen.NewServeMix(e.seed)
	d, err := bootFor(e, o)
	if err != nil {
		return nil, err
	}
	client := newClient(clientConns)
	defer client.CloseIdleConnections()
	m := &serveMix{
		e: e, o: o, mix: mix, hot: mix.Hot(), client: client,
		met: true,
	}
	m.warm = make([][]byte, len(m.hot))
	// A traced run needs the counters and one untraced rate, not medians.
	segments := serveSegments
	if e.trace {
		segments = 1
	}
	for s := range segments {
		if s > 0 {
			client.CloseIdleConnections()
			if d, _, err = boot(e.daemon); err != nil {
				return nil, err
			}
		}
		if err := m.segment(s, segments, d); err != nil {
			d.stop()
			return nil, err
		}
		if s < segments-1 || e.trace {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	o.Counts["clients"] = clientConns
	o.Counts["segments"] = segments
	o.E2E["latency_p50_ms"] = quantile(m.closed.p50, 0.5)
	o.E2E["latency_p95_ms"] = quantile(m.closed.p95, 0.5)
	o.Extra["latency_p99_ms"] = quantile(m.closed.p99, 0.5)
	o.Extra["latency_samples"] = float64(o.Counts["closed_loop_requests"])
	o.Extra["open_loop_p50_ms"] = quantile(m.open.p50, 0.5)
	o.Extra["open_loop_p95_ms"] = quantile(m.open.p95, 0.5)
	o.Extra["open_loop_p99_ms"] = quantile(m.open.p99, 0.5)
	o.Extra["open_loop_samples"] = float64(o.Counts["fixed_rate_requests"])
	o.Layer["loadgen.timer_late_p99_ms"] = quantile(millis(m.fixed.late), 0.99)
	o.Layer["loadgen.conn_wait_p99_ms"] = quantile(millis(m.fixed.connWait), 0.99)
	throughput := quantile(m.rates, 0.5)
	o.E2E["throughput_ops_s"] = throughput
	o.Extra["closed_loop_mean_ops_s"] = float64(o.Counts["closed_loop_requests"]) / o.Phases["closed_loop"]
	o.E2E["peak_rss_mb"] = quantile(m.rss, 0.5)
	if e.trace {
		return o, tracedPass(e, m.traced, 0.5*e.seconds, throughput, o)
	}

	t0 := time.Now()
	step := 0
	first := 0.0
	if m.met {
		first = serveRate
	}
	capacity := ladder(first, func(rate float64) bool {
		step++
		stepSeconds := 0.05 * e.seconds
		arr := mix.Arrivals(uint64(100+step), rate, stepSeconds)
		judge := newLimitJudge(arr, stepSeconds)
		res := openLoop(client, d.base, clientConns, arr, judge.record, m.check(arr))
		o.absorb(res)
		pass := res.failed == 0 && judge.met()
		o.Extra[fmt.Sprintf("ladder_%02d_rate", step)] = rate
		o.Extra[fmt.Sprintf("ladder_%02d_pass", step)] = map[bool]float64{false: 0, true: 1}[pass]
		return pass
	})
	o.Phases["capacity_ladder"] = time.Since(t0).Seconds()
	o.Counts["ladder_steps"] = step
	o.Extra["capacity_rps"] = capacity
	return o, d.stop()
}

// ladder finds the highest rate whose step passes. From a rate already
// known to pass (0 for none) it multiplies by ladderGrowth until a step
// fails — starting at ladderStart and dividing while steps fail when no
// rate is known — then bisects geometrically until the failing rate is
// within ladderPrecision of the passing one.
func ladder(passed float64, step func(rate float64) bool) float64 {
	pass, fail := passed, 0.0
	rate := ladderStart
	if pass > 0 {
		rate = pass * ladderGrowth
	}
	for range ladderMaxSteps {
		if step(rate) {
			pass = rate
		} else {
			fail = rate
		}
		switch {
		case fail == 0:
			rate *= ladderGrowth
		case pass == 0:
			rate /= ladderGrowth
		case fail/pass < ladderPrecision:
			return pass
		default:
			rate = math.Sqrt(pass * fail)
		}
	}
	return pass
}

// tracedPass replays ops through the in-process traced pass for the
// given seconds, writes its Chrome trace, and merges its per-layer
// numbers into o. untraced is the untraced run's rate of the same
// requests, the base of the overhead ratio.
func tracedPass(e *env, ops []gen.Op, seconds, untraced float64, o *outcome) error {
	opsFile := filepath.Join(e.scratch, "ops.jsonl")
	f, err := os.Create(opsFile)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, op := range ops {
		line, err := json.Marshal(struct {
			Path string          `json:"path"`
			Body json.RawMessage `json:"body"`
		}{op.Path, op.Body})
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(e.traceFile), 0o755); err != nil {
		return err
	}
	cmd := exec.Command(e.layers, "-ops", opsFile, "-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace-out", e.traceFile)
	dieWithParent(cmd)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	var pass struct {
		Ops     int                `json:"ops"`
		Failed  int                `json:"failed"`
		Elapsed float64            `json:"elapsed_s"`
		Layer   map[string]float64 `json:"layer"`
	}
	if err := json.Unmarshal(out, &pass); err != nil {
		return fmt.Errorf("traced pass output: %w", err)
	}
	if pass.Failed > 0 {
		o.problem("%d of %d requests failed in the traced pass", pass.Failed, pass.Ops)
	}
	for k, v := range pass.Layer {
		o.Layer[k] = v
	}
	// The fleet layers are not on a daemon workload's path.
	for _, k := range []string{"fleet.mutate_us", "fleet.poll_ms", "fleet.searches_per_poll", "fleet.replay_ms", "topology.carve_us"} {
		o.Layer[k] = 0
	}
	o.Layer["trace.overhead_ratio"] = ratio(float64(pass.Ops)/pass.Elapsed, untraced)
	o.Counts["traced_requests"] = pass.Ops
	o.Phases["traced_pass"] = pass.Elapsed
	return nil
}

// runFleetChurn runs the fleet workload in a child process of this
// binary, so the peak RSS measured is the fleet's alone.
func runFleetChurn(e *env) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"fleet-child", "-seed", strconv.FormatUint(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'f', -1, 64)}
	if e.trace {
		args = append(args, "-trace-out", e.traceFile)
	}
	cmd := exec.Command(self, args...)
	dieWithParent(cmd)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("fleet child: %w", err)
	}
	o := newOutcome()
	if err := json.Unmarshal(out, o); err != nil {
		return nil, fmt.Errorf("fleet child output: %w", err)
	}
	return o, nil
}
