package fleet

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"holmes/internal/core"
	"holmes/internal/netsim"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// The replay is an event-driven simulation on a virtual clock. At every
// instant the state machine applies, in this fixed order: run
// completions, job arrivals, scenario events, then a placement pass.
// Every queue and run scan is ordered by (time, trace index), every node
// choice takes lowest original index first, and candidate scoring
// selects its winner in input order — so the schedule is a pure function
// of the trace, independent of engine concurrency or shard layout.

// nodeFactors is the cumulative degrade state of one node (1 = pristine),
// mirroring scenario.StateAt semantics for the two classes carving can
// represent. Intra-node degradation has no topology-level expression and
// is ignored here, as in scenario.EffectiveSpec. degraded is set by the
// first degrade_nic and cleared by restore_node; a restore replans the
// node's jobs only when it was set, even if the factors multiplied back
// to 1.
type nodeFactors struct {
	rdma, eth float64
	degraded  bool
}

// pristineFactors is the degrade state of a node no degrade_nic has touched.
var pristineFactors = nodeFactors{rdma: 1, eth: 1}

// tenantUse is one tenant's accrued busy GPU-seconds.
type tenantUse struct {
	tenant string
	busy   float64
}

// qentry is one queued (or requeued) job.
type qentry struct {
	j        *rjob
	ready    float64 // submit time, or the eviction instant on requeue
	remIters int
	started  bool
	lastErr  string
	res      *Placement
}

// run is one executing slice.
type run struct {
	q       *qentry
	nodes   []int // ascending original fleet indices
	planner *core.Planner
	plan    *core.Plan
	iters   int // iterations remaining in this segment
	// segStart is when this segment began (placement or last replan);
	// finish is the projected completion instant.
	segStart, finish float64
}

// choice is one scored placement option.
type choice struct {
	nodes   []int
	planner *core.Planner
	plan    *core.Plan
}

// state is the mutable replay state. The node state is three tables
// indexed by original node index, one entry per fleet node, so a
// checkpoint logs each whole, whatever the fleet's faults.
type state struct {
	sch     *Scheduler
	pol     Policy
	clock   float64
	free    []bool        // alive and idle
	failed  []bool        // failed and not yet restored
	factors []nodeFactors // cumulative degrade state
	queue   []*qentry
	runs    []*run
	busy    float64 // accumulated busy GPU-seconds
	// tenantBusy is busy split by tenant (completed and evicted
	// segments; live-run accrual is added on read by TenantUsage), one
	// entry per tenant in the order each first accrued. It stays empty
	// under a policy that does not read tenant usage.
	tenantBusy []tenantUse
	results    []Placement
}

// newState builds the pristine replay state for a resolved trace.
func newState(s *Scheduler, pol Policy, jobs []*rjob) *state {
	n := s.topo.NumNodes()
	st := &state{
		sch:     s,
		pol:     pol,
		free:    make([]bool, n),
		failed:  make([]bool, n),
		factors: make([]nodeFactors, n),
		results: make([]Placement, len(jobs)),
	}
	for i := range n {
		st.free[i] = true
		st.factors[i] = pristineFactors
	}
	for i, j := range jobs {
		st.results[i] = Placement{JobID: j.job.ID}
	}
	return st
}

// resolveTrace validates the trace against the scheduler's topology and
// resolves every job, indexed by trace position.
func (s *Scheduler) resolveTrace(tr *Trace) ([]*rjob, error) {
	if len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("fleet: trace has no jobs")
	}
	jobs := make([]*rjob, len(tr.Jobs))
	seen := make(map[string]int, len(tr.Jobs))
	for i, j := range tr.Jobs {
		rj, err := resolveJob(s.topo, i, j)
		if err != nil {
			return nil, err
		}
		if first, dup := seen[j.ID]; dup {
			return nil, fmt.Errorf("fleet: jobs %d and %d share id %q", first, i, j.ID)
		}
		seen[j.ID] = i
		jobs[i] = &rj
	}
	if err := validateScenario(s.topo, tr.Scenario); err != nil {
		return nil, err
	}
	return jobs, nil
}

// arrivalOrder sorts the resolved jobs into (submit, trace index) order.
func arrivalOrder(jobs []*rjob) []*rjob {
	arr := append([]*rjob(nil), jobs...)
	sort.SliceStable(arr, func(a, b int) bool { return arr[a].job.Submit < arr[b].job.Submit })
	return arr
}

// Replay runs the trace's jobs over the scheduler's fleet topology
// (tr.Fleet is ignored here; the Replay function resolves it). The
// returned schedule is deterministic: same trace, same schedule. It
// resolves every job from the trace and records no checkpoints: it is
// the from-scratch oracle a Manager's incremental path is tested
// against.
func (s *Scheduler) Replay(tr *Trace) (*Schedule, error) {
	jobs, err := s.resolveTrace(tr)
	if err != nil {
		return nil, err
	}
	pol, err := PolicyByName(tr.Policy)
	if err != nil {
		return nil, err
	}
	st := newState(s, pol, jobs)
	arr := arrivalOrder(jobs)
	evs := lowerEvents(s.topo, tr.Scenario)
	ei := st.run(arr, evs, 0, 0, nil)
	return buildSchedule(tr.Name, tr.Policy, jobs, st, ei), nil
}

// run drives the replay loop from the state's current clock, starting at
// arrival index ai and event index ei, and returns the number of events
// applied. Both Replay (from scratch) and the incremental resume path
// use this one loop, so their decision sequences are identical by
// construction.
func (st *state) run(arr []*rjob, evs []scenario.Event, ai, ei int, rec *recorder) int {
	for {
		for ai < len(arr) && arr[ai].job.Submit <= st.clock {
			st.enqueue(arr[ai])
			ai++
		}
		for ei < len(evs) && evs[ei].At <= st.clock {
			st.applyEvent(evs[ei])
			ei++
		}
		st.placePass()
		if rec != nil {
			rec.record(st)
		}

		next := math.Inf(1)
		if ai < len(arr) {
			next = arr[ai].job.Submit
		}
		// Pending events only matter while work remains: a restore can
		// unblock a queued job, but an empty fleet has nothing to gain.
		if ei < len(evs) && (len(st.runs) > 0 || len(st.queue) > 0 || ai < len(arr)) {
			next = min(next, evs[ei].At)
		}
		for _, r := range st.runs {
			next = min(next, r.finish)
		}
		if math.IsInf(next, 1) {
			if len(st.queue) > 0 {
				// The whole surviving fleet is idle and the head still
				// cannot start: it never will. That rests on no arrival or
				// event being left, which a later mutation can change
				// without touching any instant up to this one, so nothing
				// from here on is recorded: a resume replays from this
				// instant's record, made before the decision.
				head := st.queue[0]
				st.queue = st.queue[1:]
				reason := head.lastErr
				if reason == "" {
					reason = "demand exceeds the fleet's surviving capacity"
				}
				head.res.Unplaced = reason
				rec = nil
				continue
			}
			break
		}
		st.clock = next
		st.completeFinished()
	}
	return ei
}

// buildSchedule folds the final replay state into the Schedule document.
func buildSchedule(name, policy string, jobs []*rjob, st *state, appliedEvents int) *Schedule {
	sched := &Schedule{
		Trace:          name,
		Policy:         policy,
		Nodes:          st.sch.topo.NumNodes(),
		GPUs:           st.sch.topo.NumDevices(),
		Jobs:           st.results,
		ScenarioEvents: appliedEvents,
	}
	for i := range sched.Jobs {
		p := &sched.Jobs[i]
		if p.Unplaced != "" {
			continue
		}
		sched.Makespan = max(sched.Makespan, p.Finish)
		if d := jobs[i].job.Deadline; d > 0 && p.Finish > d {
			p.MissedDeadline = true
		}
	}
	if sched.Makespan > 0 {
		sched.Utilization = st.busy / (float64(sched.GPUs) * sched.Makespan)
	}
	return sched
}

func (st *state) enqueue(j *rjob) {
	st.queue = append(st.queue, &qentry{
		j:        j,
		ready:    j.job.Submit,
		remIters: j.iters,
		res:      &st.results[j.idx],
	})
	st.sortQueue()
}

// sortQueue orders the queue by the replay's policy. Policies close
// over PolicyState reads only (tenant usage is stable while a sort
// runs) and end in the trace-index tie-break, so the order is total and
// deterministic.
func (st *state) sortQueue() {
	sort.SliceStable(st.queue, func(a, b int) bool {
		return st.pol.Less(st, st.queuedView(st.queue[a]), st.queuedView(st.queue[b]))
	})
}

// freeNodes lists idle alive nodes ascending.
func (st *state) freeNodes() []int {
	var out []int
	for i, f := range st.free {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// candidates enumerates the slices to score for a demand of need nodes,
// NIC-affinity first per the paper's cluster-grouping rule: single
// clusters in cluster order, then NIC-homogeneous cross-cluster groups
// in fixed technology order, then the whole-fleet fallback. Each slice
// takes the lowest-index free nodes of its group; duplicates collapse.
func (st *state) candidates(need int) [][]int {
	free := st.freeNodes()
	if len(free) < need {
		return nil
	}
	var cands [][]int
	add := func(nodes []int) {
		for _, c := range cands {
			if slices.Equal(c, nodes) {
				return
			}
		}
		cands = append(cands, nodes)
	}
	topo := st.sch.topo
	for _, c := range topo.Clusters {
		var in []int
		for _, n := range free {
			if topo.Node(n).Cluster == c.Index {
				in = append(in, n)
			}
		}
		if len(in) >= need {
			add(in[:need])
		}
	}
	for _, nic := range []topology.NICType{topology.InfiniBand, topology.RoCE, topology.Ethernet} {
		var in []int
		for _, n := range free {
			if topo.Clusters[topo.Node(n).Cluster].NICType == nic {
				in = append(in, n)
			}
		}
		if len(in) >= need {
			add(in[:need])
		}
	}
	add(free[:need])
	return cands
}

// carve cuts the slice's sub-topology, folding each node's cumulative
// degrade factors into the carved overrides. nodes must be ascending.
func (st *state) carve(nodes []int) (*topology.Topology, error) {
	spec, err := st.sch.topo.CarveSpec(nodes)
	if err != nil {
		return nil, err
	}
	pos := 0
	for ci := range spec.Clusters {
		cs := &spec.Clusters[ci]
		for k := 0; k < cs.Nodes; k++ {
			if f := st.factors[nodes[pos]]; f.degraded {
				ov := cs.Overrides[k]
				ov.GbpsPerNIC *= f.rdma
				ov.EthGbps *= f.eth
				cs.Overrides[k] = ov
			}
			pos++
		}
	}
	return topology.Build(spec)
}

// fingerprint returns the fingerprint of the slice carve would cut, or
// carve's error. The carve is a pure function of the fleet topology, the
// slice's nodes and their factors, and the replay asks for the same few
// slices at instant after instant, so the outcome is memoized on the
// engine's plan cache under a sliceKey (DESIGN.md decision 10). An
// untouched node keys as the pristine factors, which carve the same as a
// node degraded by factor 1. A FullRecompute engine skips the memo and
// carves every slice.
func (st *state) fingerprint(nodes []int) (string, error) {
	eng := st.sch.eng
	if eng.FullRecompute() {
		return st.carveFingerprint(nodes)
	}
	var sb strings.Builder
	sb.Grow(18 * len(nodes))
	for _, n := range nodes {
		f := st.factors[n]
		var w [binary.MaxVarintLen64 + 16]byte
		b := binary.AppendUvarint(w[:0], uint64(n))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.rdma))
		sb.Write(binary.LittleEndian.AppendUint64(b, math.Float64bits(f.eth)))
	}
	key := sliceKey{fleet: st.sch.fp, nodes: sb.String()}
	if v, ok := eng.Plan(key); ok {
		e := v.(sliceEntry)
		return e.fp, e.err
	}
	fp, err := st.carveFingerprint(nodes)
	eng.StorePlan(key, sliceEntry{fp: fp, err: err})
	return fp, err
}

func (st *state) carveFingerprint(nodes []int) (string, error) {
	sub, err := st.carve(nodes)
	if err != nil {
		return "", err
	}
	return sub.Fingerprint(), nil
}

// resolvePlans fills found[i] with the joint-search outcome for keys[i]
// on the slice nodes[i], skipping the entries found already holds an
// error for. Each key is looked up once in the engine's shared plan
// cache, on the replay goroutine, so the cache counts one hit or one
// miss per key; only the misses are searched, over the engine's worker
// pool. Scoring is a pure function of (slice fingerprint, model,
// framework), so a hit — even one written by a different scheduler —
// cannot change a schedule.
func (st *state) resolvePlans(keys []planKey, nodes [][]int, found []planEntry) {
	var misses []int
	for i, key := range keys {
		if found[i].err != nil {
			continue
		}
		if v, ok := st.sch.eng.Plan(key); ok {
			found[i] = v.(planEntry)
		} else {
			misses = append(misses, i)
		}
	}
	st.sch.fanOut(len(misses), func(k int) {
		i := misses[k]
		found[i] = st.searchSlice(keys[i], nodes[i])
	})
}

// searchSlice runs the joint search for a model on the slice whose
// fingerprint is key.fp, after a plan-cache miss, and stores the
// outcome. The slice is carved only here.
func (st *state) searchSlice(key planKey, nodes []int) planEntry {
	eng := st.sch.eng
	sub, err := st.carve(nodes)
	if err != nil {
		return planEntry{err: err}
	}
	pl, err := core.NewPlannerOn(eng, sub, key.spec)
	if err != nil {
		return planEntry{err: err}
	}
	pl.Framework = key.fw
	plan, err := pl.SearchPlan()
	eng.StorePlan(key, planEntry{planner: pl, plan: plan, err: err})
	if err != nil {
		return planEntry{err: err}
	}
	return planEntry{planner: pl, plan: plan}
}

// fanOut runs fn for each of n plan-cache misses over the engine's
// bounded worker pool. Hits are resolved on the replay goroutine and
// never reach it, so a step whose every lookup hits starts no goroutine,
// and fanned counts what did reach it.
func (s *Scheduler) fanOut(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	s.fanned.Add(uint64(n))
	s.eng.Go(n, fn)
}

// scoreJob scores every candidate slice for a job against the current
// free set and selects the highest simulated throughput, ties broken by
// candidate input order — identical to a sequential scan. Candidates are
// fingerprinted first and deduplicated by structural fingerprint, so the
// engine searches each distinct slice exactly once and
// fingerprint-identical slices never race each other for pool workers;
// each distinct slice's plan is looked up once, and only the misses fan
// out over the engine's bounded worker pool.
//
// scoreJob never mutates the replay state. It reports the two error
// strings the caller may fold into the job's lastErr: needErr when the
// free set cannot cover the demand at all (the original code overwrote
// lastErr unconditionally), and scoreErr — the first carve/search error
// in candidate order — which only lands when lastErr is still empty.
func (st *state) scoreJob(j *rjob) (ch choice, ok bool, needErr, scoreErr string) {
	cands := st.candidates(j.nodes)
	if len(cands) == 0 {
		return choice{}, false, fmt.Sprintf("needs %d free node(s)", j.nodes), ""
	}
	uniq := make([][]int, 0, len(cands)) // first candidate of each distinct fingerprint
	keys := make([]planKey, 0, len(cands))
	uniqOf := make([]int, len(cands)) // candidate -> index into uniq, -1 on carve error
	carveErrs := make([]error, len(cands))
	for i, nodes := range cands {
		fp, err := st.fingerprint(nodes)
		if err != nil {
			uniqOf[i] = -1
			carveErrs[i] = err
			continue
		}
		u := slices.IndexFunc(keys, func(k planKey) bool { return k.fp == fp })
		if u < 0 {
			u = len(uniq)
			uniq = append(uniq, nodes)
			keys = append(keys, planKey{fp: fp, spec: j.spec, fw: j.fw})
		}
		uniqOf[i] = u
	}
	found := make([]planEntry, len(uniq))
	st.resolvePlans(keys, uniq, found)
	best := -1
	for i := range cands {
		err := carveErrs[i]
		var plan *core.Plan
		if u := uniqOf[i]; u >= 0 {
			err = found[u].err
			plan = found[u].plan
		}
		if err != nil {
			if scoreErr == "" {
				scoreErr = err.Error()
			}
			continue
		}
		if best < 0 || plan.Report.Throughput > found[uniqOf[best]].plan.Report.Throughput {
			best = i
		}
	}
	if best < 0 {
		return choice{}, false, "", scoreErr
	}
	e := found[uniqOf[best]]
	return choice{nodes: cands[best], planner: e.planner, plan: e.plan}, true, "", scoreErr
}

// pick scores a queued job and folds the scoring errors into its
// lastErr, exactly like the historical sequential scan did.
func (st *state) pick(q *qentry) (choice, bool) {
	ch, ok, needErr, scoreErr := st.scoreJob(q.j)
	if needErr != "" {
		q.lastErr = needErr
	}
	if scoreErr != "" && q.lastErr == "" {
		q.lastErr = scoreErr
	}
	return ch, ok
}

// start commits a placement choice.
func (st *state) start(q *qentry, ch choice, backfilled bool) {
	for _, n := range ch.nodes {
		st.free[n] = false
	}
	r := &run{
		q:        q,
		nodes:    append([]int(nil), ch.nodes...),
		planner:  ch.planner,
		plan:     ch.plan,
		iters:    q.remIters,
		segStart: st.clock,
		finish:   st.clock + float64(q.remIters)*ch.plan.Report.IterSeconds,
	}
	st.runs = append(st.runs, r)
	res := q.res
	if !q.started {
		q.started = true
		res.Start = st.clock
		res.Waited = st.clock - q.j.job.Submit
	}
	res.Nodes = r.nodes
	res.Finish = r.finish
	if backfilled {
		res.Backfilled = true
	}
	st.recordPlan(res, ch.plan)
}

func (st *state) recordPlan(res *Placement, plan *core.Plan) {
	res.Degrees = Degrees{Tensor: plan.Degrees.T, Pipeline: plan.Degrees.P, Data: plan.Degrees.D}
	res.IterSeconds = plan.Report.IterSeconds
	res.Throughput = plan.Report.Throughput
	res.TFLOPS = plan.Report.TFLOPS
	res.Partition = plan.Partition.String()
}

// placePass is the FIFO + EASY-backfill scheduling step: start the queue
// head whenever it fits; otherwise reserve its earliest possible start
// and let later jobs that fit the idle nodes jump ahead only if they
// finish by the reservation, so backfilling never delays the head.
//
// The backfill scan scores the eligible queued jobs in queue order
// against the free set and starts the first that fits the reservation,
// folding each scored job's errors into its lastErr as it goes; jobs
// behind the one started are not scored until the next scan.
func (st *state) placePass() {
	for len(st.queue) > 0 {
		head := st.queue[0]
		if ch, ok := st.pick(head); ok {
			st.start(head, ch, false)
			st.queue = st.queue[1:]
			continue
		}
		// Preemptive policies may clear room for a capacity-blocked head
		// before the EASY reservation is taken. Victims requeue behind
		// the head (they are less entitled by construction), so the head
		// re-scores against the widened free set.
		if st.preemptFor(head) {
			if ch, ok := st.pick(head); ok {
				st.start(head, ch, false)
				st.queue = st.queue[1:]
				continue
			}
		}
		if !st.backfill(st.reserveTime(head.j.nodes)) {
			return
		}
	}
}

// backfill starts the first queued job behind the head that fits the
// free nodes and finishes by tHead, and reports whether it started one.
func (st *state) backfill(tHead float64) bool {
	freeCount := len(st.freeNodes())
	for i := 1; i < len(st.queue); i++ {
		q := st.queue[i]
		if q.j.nodes > freeCount {
			continue
		}
		ch, ok := st.pick(q)
		if ok && st.clock+float64(q.remIters)*ch.plan.Report.IterSeconds <= tHead {
			st.start(q, ch, true)
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return true
		}
	}
	return false
}

// reserveTime is the earliest instant the queue head could have enough
// free nodes, assuming running jobs finish as projected: +Inf when even
// the whole surviving fleet is too small.
func (st *state) reserveTime(need int) float64 {
	freeCount := len(st.freeNodes())
	if freeCount >= need {
		return st.clock
	}
	runs := append([]*run(nil), st.runs...)
	sort.SliceStable(runs, func(a, b int) bool {
		if runs[a].finish != runs[b].finish {
			return runs[a].finish < runs[b].finish
		}
		return runs[a].q.j.idx < runs[b].q.j.idx
	})
	for _, r := range runs {
		freeCount += len(r.nodes)
		if freeCount >= need {
			return r.finish
		}
	}
	return math.Inf(1)
}

// completeFinished retires every run projected to finish by the clock,
// in (finish, trace index) order.
func (st *state) completeFinished() {
	var done []*run
	keep := st.runs[:0]
	for _, r := range st.runs {
		if r.finish <= st.clock {
			done = append(done, r)
		} else {
			keep = append(keep, r)
		}
	}
	st.runs = keep
	sort.SliceStable(done, func(a, b int) bool {
		if done[a].finish != done[b].finish {
			return done[a].finish < done[b].finish
		}
		return done[a].q.j.idx < done[b].q.j.idx
	})
	for _, r := range done {
		st.accrue(r, r.finish-r.segStart)
		for _, n := range r.nodes {
			if !st.failed[n] {
				st.free[n] = true
			}
		}
		r.q.res.Finish = r.finish
	}
}

func (st *state) gpus(r *run) float64 {
	return float64(len(r.nodes) * st.sch.topo.GPUsPerNode)
}

// accrue books dt seconds of the run's GPUs into the fleet total and,
// when the policy reads tenant usage, the run's tenant. Callers invoke
// it in replay-deterministic order, so the floating-point sums are
// reproducible bit for bit. A tenant's first accrual adds to an explicit
// 0, as a map's missing entry would.
func (st *state) accrue(r *run, dt float64) {
	st.busy += st.gpus(r) * dt
	if !st.pol.readsUsage() {
		return
	}
	i := st.tenantIndex(r.q.j.tenant)
	if i < 0 {
		i = len(st.tenantBusy)
		st.tenantBusy = append(st.tenantBusy, tenantUse{tenant: r.q.j.tenant})
	}
	st.tenantBusy[i].busy += st.gpus(r) * dt
}

// tenantIndex finds the tenant's tenantBusy entry, -1 when it has none.
func (st *state) tenantIndex(tenant string) int {
	for i := range st.tenantBusy {
		if st.tenantBusy[i].tenant == tenant {
			return i
		}
	}
	return -1
}

// segmentProgress closes the books on a run segment at the clock and
// returns the iterations still owed (at least one: a run finishing
// exactly now was already retired by completeFinished).
func (st *state) segmentProgress(r *run) int {
	st.accrue(r, st.clock-r.segStart)
	done := int((st.clock - r.segStart) / r.plan.Report.IterSeconds)
	rem := r.iters - done
	if rem < 1 {
		rem = 1
	}
	return rem
}

// applyEvent folds one scenario event into the replay state.
func (st *state) applyEvent(ev scenario.Event) {
	switch ev.Kind {
	case scenario.FailNode:
		if st.failed[ev.Node] {
			return
		}
		st.failed[ev.Node] = true
		st.free[ev.Node] = false
		st.evictOn(ev.Node)
	case scenario.RestoreNode:
		degraded := st.factors[ev.Node].degraded
		st.factors[ev.Node] = pristineFactors
		if st.failed[ev.Node] {
			st.failed[ev.Node] = false
			st.free[ev.Node] = true
			return
		}
		// A degraded (not failed) node returns to full capacity: jobs
		// running on it replan in place onto the restored slice. Restoring
		// a node that was never touched is a no-op — replanning anyway
		// would discard partial-iteration progress for nothing.
		if degraded {
			st.replanOn(ev.Node)
		}
	case scenario.DegradeNIC:
		class, err := ev.Class.NetClass()
		if err != nil {
			return // Validate rejected this already; fold defensively
		}
		f := st.factors[ev.Node]
		switch class {
		case netsim.RDMA:
			f.rdma *= ev.Factor
		case netsim.Ether:
			f.eth *= ev.Factor
		default:
			return // intra-node degradation has no carving representation
		}
		f.degraded = true
		st.factors[ev.Node] = f
		st.replanOn(ev.Node)
	}
}

// evictOn requeues every job whose slice contains the failed node,
// measuring what replanning on the residual slice would recover via the
// core replanner (reuse of the single-job fault path). Bookkeeping runs
// serially in trace order; recoveries looks the factors up and fans out
// only the ones the plan cache misses.
func (st *state) evictOn(node int) {
	var hit []*run
	keep := st.runs[:0]
	for _, r := range st.runs {
		contains := false
		for _, n := range r.nodes {
			if n == node {
				contains = true
				break
			}
		}
		if contains {
			hit = append(hit, r)
		} else {
			keep = append(keep, r)
		}
	}
	st.runs = keep
	sort.SliceStable(hit, func(a, b int) bool { return hit[a].q.j.idx < hit[b].q.j.idx })
	recoveries := st.recoveries(hit, node)
	for i, r := range hit {
		rem := st.segmentProgress(r)
		q := r.q
		q.remIters = rem
		q.ready = st.clock
		q.res.Evictions++
		q.res.Recovery = recoveries[i]
		for _, n := range r.nodes {
			if !st.failed[n] {
				st.free[n] = true
			}
		}
		st.queue = append(st.queue, q)
	}
	if len(hit) > 0 {
		st.sortQueue()
	}
}

// recoveries measures, for each evicted run in turn, what replanning on
// its residual slice would recover, through core.ReplanFrom: the factor
// compares a fresh joint search on the residual slice against the old
// plan limping under the failure. A slice with no survivors (or no
// feasible residual plan) reports 0.
//
// The factor is a pure function of the slice's plan key — read back off
// the run's planner, which searchSlice built from exactly that key — and
// the failed node's index within the slice. A resumed replay crosses the
// same evictions poll after poll, so the factor is memoized on the
// engine's plan cache under a recoveryKey (DESIGN.md decision 10),
// looked up on the replay goroutine; the misses fan out over the pool.
// A FullRecompute engine skips the memo and recomputes every factor: the
// oracle managers the differential tests compare against never read a
// memoized one.
func (st *state) recoveries(hit []*run, failedNode int) []float64 {
	eng := st.sch.eng
	out := make([]float64, len(hit))
	keys := make([]recoveryKey, len(hit))
	var misses []int
	for i, r := range hit {
		local := slices.Index(r.nodes, failedNode)
		keys[i].local = local
		if local < 0 {
			continue
		}
		if eng.FullRecompute() {
			misses = append(misses, i)
			continue
		}
		pl := r.planner
		keys[i].slice = planKey{fp: pl.Topo.Fingerprint(), spec: pl.Spec, fw: pl.Framework}
		if v, ok := eng.Plan(keys[i]); ok {
			out[i] = v.(float64)
		} else {
			misses = append(misses, i)
		}
	}
	st.sch.fanOut(len(misses), func(k int) {
		i := misses[k]
		out[i] = replanRecovery(hit[i], keys[i].local)
		if !eng.FullRecompute() {
			eng.StorePlan(keys[i], out[i])
		}
	})
	return out
}

// replanRecovery runs core.ReplanFrom for the loss of the slice's local
// node and returns the recovery factor, 0 when it fails or is not finite.
func replanRecovery(r *run, local int) float64 {
	sc := &scenario.Scenario{
		Name:   "eviction",
		Events: []scenario.Event{{Kind: scenario.FailNode, At: 0, Node: local}},
	}
	rep, err := r.planner.ReplanFrom(r.plan, sc, math.Inf(1))
	if err != nil {
		return 0
	}
	f := rep.RecoveryFactor()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

// replanOn re-plans, in place and on their own nodes, the jobs whose
// slice contains the affected node: the slice is re-carved under the
// current degrade factors and the joint search re-run, so the remaining
// iterations proceed at the slice's new speed. Progress bookkeeping runs
// serially in trace order (busy-seconds accumulate in a fixed order);
// each slice's fingerprint and plan are looked up on the replay
// goroutine, the plan-cache misses are searched over the engine pool,
// and the outcomes apply in trace order.
func (st *state) replanOn(node int) {
	var hit []*run
	for _, r := range st.runs {
		for _, n := range r.nodes {
			if n == node {
				hit = append(hit, r)
				break
			}
		}
	}
	sort.SliceStable(hit, func(a, b int) bool { return hit[a].q.j.idx < hit[b].q.j.idx })
	rems := make([]int, len(hit))
	for i, r := range hit {
		rems[i] = st.segmentProgress(r)
	}
	found := make([]planEntry, len(hit))
	keys := make([]planKey, len(hit))
	nodes := make([][]int, len(hit))
	for i, r := range hit {
		fp, err := st.fingerprint(r.nodes)
		if err != nil {
			found[i].err = err
			continue
		}
		keys[i] = planKey{fp: fp, spec: r.q.j.spec, fw: r.q.j.fw}
		nodes[i] = r.nodes
	}
	st.resolvePlans(keys, nodes, found)
	for i, r := range hit {
		rem := rems[i]
		if found[i].err != nil {
			// The degraded slice admits no plan; let the old projection
			// stand rather than lose the job.
			r.segStart = st.clock
			r.iters = rem
			r.finish = st.clock + float64(rem)*r.plan.Report.IterSeconds
			r.q.res.Finish = r.finish
			continue
		}
		e := found[i]
		r.planner, r.plan = e.planner, e.plan
		r.segStart = st.clock
		r.iters = rem
		r.finish = st.clock + float64(rem)*e.plan.Report.IterSeconds
		r.q.res.Finish = r.finish
		r.q.res.Replans++
		st.recordPlan(r.q.res, e.plan)
	}
}
