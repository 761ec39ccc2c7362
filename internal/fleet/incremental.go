package fleet

import (
	"math"
	"slices"

	"holmes/internal/core"
	"holmes/internal/scenario"
)

// Incremental rescheduling. The replay is causal: every decision taken
// at an instant depends only on the state at that instant, which in turn
// depends only on arrivals, events, and prior decisions at earlier or
// equal instants. So a mutation whose earliest observable effect is at
// virtual time t — a submit at t, a cancel of a job submitted at t, an
// event scripted at t — cannot change anything the replay decided at
// instants strictly before t. The recorder snapshots the full replay
// state after every instant's placement pass; a mutated trace resumes
// from the last snapshot taken strictly before its change point and
// replays only the suffix. The from-scratch Replay stays available (and
// is the differential oracle): by construction both paths run the same
// state.run loop over the same state, so their schedules are
// bit-identical — the differential and golden tests hold each release to
// that.
//
// Most placement rows do not change from one instant to the next (a
// finished job's row never does), so a snapshot does not copy them: its
// row table points at immutable rows, and a row unchanged since the
// previous recorded snapshot is that snapshot's row. Rows are copied
// out again on restore, so neither the live state nor a returned
// schedule ever holds a checkpoint row.

// maxCheckpoints bounds the recorder. Beyond the bound new instants are
// simply not recorded, and do not move the base the next recorded
// instant's rows are compared against: resume then starts earlier and
// replays more, which is slower but never wrong. With MaxJobs = 64 the
// bound is never approached in practice. Rows are shared, not chained
// as deltas, so a checkpoint costs its state plus one pointer per trace
// job, and restoring it walks no chain that would need a bound of its
// own.
const maxCheckpoints = 4096

// qcheck snapshots one queue entry. Jobs are identified by ID, not trace
// index: a mutation shifts the indices of jobs submitted at or after the
// change point, while every job captured in a usable checkpoint was
// submitted strictly before it (and so keeps both its identity and its
// index-order relative to its peers).
type qcheck struct {
	id       string
	ready    float64
	remIters int
	started  bool
	lastErr  string
}

// runCheck snapshots one executing slice. The planner and plan pointers
// are shared, not copied: plans are immutable after construction and the
// replay only ever swaps them, never mutates through them.
type runCheck struct {
	q                qcheck
	nodes            []int
	planner          *core.Planner
	plan             *core.Plan
	iters            int
	segStart, finish float64
}

// checkpoint is the full replay state at one instant, after that
// instant's placement pass.
type checkpoint struct {
	clock      float64
	free       []bool
	failed     map[int]bool
	factors    map[int]nodeFactors
	queue      []qcheck
	runs       []runCheck
	busy       float64
	tenantBusy map[string]float64
	// results holds one immutable row per trace job of the recording
	// replay, in its trace order; restore matches them by JobID. Rows
	// are shared with neighbouring checkpoints and never written.
	results []*Placement
}

// recorder accumulates checkpoints during a recorded replay. base is
// the row table of the previous recorded checkpoint, aligned to the
// running replay's trace indices: nil entries (or a short table) mark
// jobs with no row to share yet.
type recorder struct {
	checks []*checkpoint
	base   []*Placement
}

// record snapshots the state, sharing every row the previous recorded
// checkpoint holds unchanged and copying the rest, Nodes included.
// Called by state.run after each instant's placement pass.
func (rec *recorder) record(st *state) {
	if len(rec.checks) >= maxCheckpoints {
		return
	}
	cp := &checkpoint{
		clock:      st.clock,
		free:       append([]bool(nil), st.free...),
		failed:     make(map[int]bool, len(st.failed)),
		factors:    make(map[int]nodeFactors, len(st.factors)),
		queue:      make([]qcheck, len(st.queue)),
		runs:       make([]runCheck, len(st.runs)),
		busy:       st.busy,
		tenantBusy: make(map[string]float64, len(st.tenantBusy)),
		results:    make([]*Placement, len(st.results)),
	}
	for k, v := range st.failed {
		cp.failed[k] = v
	}
	for k, v := range st.factors {
		cp.factors[k] = v
	}
	for k, v := range st.tenantBusy {
		cp.tenantBusy[k] = v
	}
	for i, q := range st.queue {
		cp.queue[i] = snapQ(q)
	}
	for i, r := range st.runs {
		cp.runs[i] = runCheck{
			q:        snapQ(r.q),
			nodes:    append([]int(nil), r.nodes...),
			planner:  r.planner,
			plan:     r.plan,
			iters:    r.iters,
			segStart: r.segStart,
			finish:   r.finish,
		}
	}
	for i := range st.results {
		live := &st.results[i]
		if i < len(rec.base) && rec.base[i] != nil && sameRow(rec.base[i], live) {
			cp.results[i] = rec.base[i]
			continue
		}
		row := *live
		row.Nodes = append([]int(nil), live.Nodes...)
		cp.results[i] = &row
	}
	rec.base = cp.results
	rec.checks = append(rec.checks, cp)
}

// sameRow reports whether two placement rows are identical. Floats are
// compared by their bits, so a row whose value only changed sign of zero
// is still copied rather than shared away.
func sameRow(a, b *Placement) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.JobID == b.JobID && slices.Equal(a.Nodes, b.Nodes) && a.Degrees == b.Degrees &&
		same(a.Start, b.Start) && same(a.Finish, b.Finish) && same(a.Waited, b.Waited) &&
		same(a.IterSeconds, b.IterSeconds) && same(a.Throughput, b.Throughput) && same(a.TFLOPS, b.TFLOPS) &&
		a.Partition == b.Partition && a.Backfilled == b.Backfilled &&
		a.Evictions == b.Evictions && a.Replans == b.Replans && same(a.Recovery, b.Recovery) &&
		a.Preemptions == b.Preemptions && a.MissedDeadline == b.MissedDeadline && a.Unplaced == b.Unplaced
}

func snapQ(q *qentry) qcheck {
	return qcheck{
		id:       q.j.job.ID,
		ready:    q.ready,
		remIters: q.remIters,
		started:  q.started,
		lastErr:  q.lastErr,
	}
}

// invalidateFrom drops every checkpoint taken at or after the change
// point: state at those instants can depend on the mutation.
func (rec *recorder) invalidateFrom(t float64) {
	keep := rec.checks[:0]
	for _, cp := range rec.checks {
		if cp.clock < t {
			keep = append(keep, cp)
		}
	}
	for i := len(keep); i < len(rec.checks); i++ {
		rec.checks[i] = nil
	}
	rec.checks = keep
}

// reset discards all checkpoints.
func (rec *recorder) reset() { rec.invalidateFrom(math.Inf(-1)) }

// popLast removes and returns the newest checkpoint (nil when empty).
// Resume re-runs the checkpoint's own instant — a fixed-point no-op on
// the restored state — and re-records it, so the caller pops it first to
// keep the list free of duplicates.
func (rec *recorder) popLast() *checkpoint {
	if len(rec.checks) == 0 {
		return nil
	}
	cp := rec.checks[len(rec.checks)-1]
	rec.checks[len(rec.checks)-1] = nil
	rec.checks = rec.checks[:len(rec.checks)-1]
	return cp
}

// restore rebuilds a live replay state from the checkpoint against a
// freshly resolved trace, copying every row out. Its second result is the
// checkpoint's row table re-aligned to the new trace's indices, nil for
// jobs new to the trace: the base the resumed replay's first record
// compares against. It returns false when any snapshotted job is missing
// from the trace — a sign the caller's invalidation missed a mutation —
// so the caller falls back to a full recorded replay instead of resuming
// from a stale base.
func (cp *checkpoint) restore(s *Scheduler, pol Policy, jobs []*rjob) (*state, []*Placement, bool) {
	byID := make(map[string]*rjob, len(jobs))
	for _, j := range jobs {
		byID[j.job.ID] = j
	}
	st := &state{
		sch:        s,
		pol:        pol,
		clock:      cp.clock,
		free:       append([]bool(nil), cp.free...),
		failed:     make(map[int]bool, len(cp.failed)),
		factors:    make(map[int]nodeFactors, len(cp.factors)),
		busy:       cp.busy,
		tenantBusy: make(map[string]float64, len(cp.tenantBusy)),
		results:    make([]Placement, len(jobs)),
	}
	if len(st.free) != s.topo.NumNodes() {
		return nil, nil, false
	}
	for k, v := range cp.failed {
		st.failed[k] = v
	}
	for k, v := range cp.factors {
		st.factors[k] = v
	}
	for k, v := range cp.tenantBusy {
		st.tenantBusy[k] = v
	}
	for i, j := range jobs {
		st.results[i] = Placement{JobID: j.job.ID}
	}
	// Carry forward every snapshotted placement row: finished jobs keep
	// their final rows, started jobs their start/wait bookkeeping. Rows
	// of jobs the mutation removed are dropped; jobs new to the trace
	// keep their fresh zero rows.
	base := make([]*Placement, len(jobs))
	for _, p := range cp.results {
		j, ok := byID[p.JobID]
		if !ok {
			continue
		}
		row := *p
		row.Nodes = append([]int(nil), p.Nodes...)
		st.results[j.idx] = row
		base[j.idx] = p
	}
	st.queue = make([]*qentry, 0, len(cp.queue))
	for _, qc := range cp.queue {
		q, ok := restoreQ(qc, byID, st)
		if !ok {
			return nil, nil, false
		}
		st.queue = append(st.queue, q)
	}
	st.runs = make([]*run, 0, len(cp.runs))
	for _, rc := range cp.runs {
		q, ok := restoreQ(rc.q, byID, st)
		if !ok {
			return nil, nil, false
		}
		st.runs = append(st.runs, &run{
			q:        q,
			nodes:    append([]int(nil), rc.nodes...),
			planner:  rc.planner,
			plan:     rc.plan,
			iters:    rc.iters,
			segStart: rc.segStart,
			finish:   rc.finish,
		})
	}
	return st, base, true
}

func restoreQ(qc qcheck, byID map[string]*rjob, st *state) (*qentry, bool) {
	j, ok := byID[qc.id]
	if !ok {
		return nil, false
	}
	return &qentry{
		j:        j,
		ready:    qc.ready,
		remIters: qc.remIters,
		started:  qc.started,
		lastErr:  qc.lastErr,
		res:      &st.results[j.idx],
	}, true
}

// resume replays the trace, reusing the recorder's newest surviving
// checkpoint as the starting state when one exists. The caller must have
// invalidated the recorder from every mutation's change point since the
// last recorded replay; under that contract resume is bit-identical to
// Replay (see the package differential tests).
func (s *Scheduler) resume(tr *Trace, rec *recorder) (*Schedule, error) {
	jobs, err := s.resolveTrace(tr)
	if err != nil {
		rec.reset()
		return nil, err
	}
	pol, err := PolicyByName(tr.Policy)
	if err != nil {
		rec.reset()
		return nil, err
	}
	arr := arrivalOrder(jobs)
	evs := lowerEvents(s.topo, tr.Scenario)
	if cp := rec.popLast(); cp != nil {
		if st, base, ok := cp.restore(s, pol, jobs); ok {
			rec.base = base
			ai, ei := 0, 0
			for ai < len(arr) && arr[ai].job.Submit <= st.clock {
				ai++
			}
			for ei < len(evs) && evs[ei].At <= st.clock {
				ei++
			}
			ei = st.run(arr, evs, ai, ei, rec)
			return buildSchedule(tr, jobs, st, ei), nil
		}
		rec.reset()
	}
	st := newState(s, pol, jobs)
	rec.base = nil
	ei := st.run(arr, evs, 0, 0, rec)
	return buildSchedule(tr, jobs, st, ei), nil
}

// changePoint reports the earliest instant an event mutation can alter
// the replay.
func eventChange(evs []scenario.Event) float64 {
	t := math.Inf(1)
	for _, ev := range evs {
		t = min(t, ev.At)
	}
	return t
}
