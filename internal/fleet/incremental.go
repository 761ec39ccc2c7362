package fleet

import (
	"cmp"
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
// instants strictly before t. The one decision that looks ahead —
// declaring the queue head unplaced because no arrival or event is left
// — ends the recording (see state.run). The recorder snapshots the full
// replay state after every other instant's placement pass; a mutated
// trace resumes from the last snapshot taken strictly before its change
// point and replays only the suffix. The from-scratch Replay stays
// available (and is the differential oracle): by construction both
// paths run the same state.run loop over the same state, so their
// schedules are bit-identical — the differential and golden tests hold
// each release to that.
//
// A snapshot costs what its instant changed, not what the replay has
// accumulated. Checkpoints are taken in clock order and only ever
// dropped as a suffix, so the recorder keeps them as a stack of marks
// into flat logs, which invalidateFrom and popLast rewind by truncation.
// A record appends the queue and the runs, each entry naming its job's
// row in a rows log, plus any node or tenant table that changed. A row
// is logged when it differs from the job's row at the previous record,
// and shared otherwise; a job's final row is named once, at the first
// record after the job left the queue and the runs. Restoring walks that
// final-row log and the checkpoint's own entries once, copying every row
// out, so neither the live state nor a returned schedule ever holds a
// checkpoint's memory.

// maxCheckpoints bounds the recorder. Beyond the bound new instants are
// simply not recorded: resume then starts earlier and replays more,
// which is slower but never wrong. Nothing drops checkpoints while a
// replay runs, so a replay that skips one record stores none after it,
// and every resume restarts the recorder from its restored state. With
// MaxJobs = 64 the bound is never approached in practice.
const maxCheckpoints = 4096

// span is the range [from, to) of one of the recorder's logs.
type span struct{ from, to int }

// rowCheck names one job's placement row at a record: the job's trace
// index, checked against the row's JobID on restore — a mutation shifts
// the indices only of jobs that sort after its change point, while every
// job a usable checkpoint names was submitted strictly before it — and
// the row's entry in the rows log.
type rowCheck struct {
	idx, row int
}

// rowEntry is one logged row, its Nodes moved into the nodes log.
type rowEntry struct {
	row   Placement // Nodes nil
	nodes span
}

// qcheck snapshots one queue entry.
type qcheck struct {
	rowCheck
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
	nodes            span
	planner          *core.Planner
	plan             *core.Plan
	iters            int
	segStart, finish float64
}

// checkpoint is the replay state at one instant, after that instant's
// placement pass, as marks into the recorder's logs. Its queue and runs
// are its own ranges; rec.finals[:finals] names the final row of every
// job that had left the queue and the runs by its instant; its node
// tables are the width-long entries of the table logs at free, failed
// and factors, shared with the previous checkpoint when they did not
// change, as its tenant table is.
type checkpoint struct {
	clock, busy           float64
	queue, runs, tenants  span
	finals, rows, nodes   int // log lengths after its record
	free, failed, factors int
}

// recorder accumulates checkpoints during a recorded replay. Every log
// holds the entries of the checkpoints in stack order, so the logs end
// where the newest checkpoint's entries end.
//
// The recorder follows the newest checkpoint: live holds the trace
// indices of the jobs queued or running at it — the jobs whose final
// rows the next record may owe — and, by trace index, seen holds the
// stamp of the newest record a job was live at and rowAt its row entry
// there, which the next record shares when the row has not changed.
// spare is the second buffer of the live pair, so a record allocates no
// index set.
type recorder struct {
	checks  []checkpoint
	queue   []qcheck
	runs    []runCheck
	finals  []rowCheck
	rows    []rowEntry
	nodes   []int
	free    []bool
	failed  []bool
	factors []nodeFactors
	tenants []tenantUse
	width   int // fleet nodes: the length of one node table

	live, spare []int
	seen        []uint32
	rowAt       []int
	stamp       uint32
}

// record snapshots the state. Called by state.run after each instant's
// placement pass.
//
// The placement rows rest on one invariant: the replay writes a job's
// row only through the qentry of a queued or running job (start and
// recordPlan, completeFinished, evictOn, replanOn, preemptFor, and the
// unplaced queue head in run). A job that leaves the queue and the runs
// between two records was in one of them at the earlier record: a run
// completes only after a record, and a head is declared unplaced right
// after one, which ends the recording. So a record names the rows of the
// jobs live now, and the row of each job live at the previous record but
// not now, which is final; the rows of jobs that have not arrived are
// their zero rows and are not logged.
//
// A node or tenant table equal to the previous checkpoint's is that
// checkpoint's. The factors are positive products of factors in (0, 1]
// and usage sums of non-negative terms, never -0 or NaN, so == compares
// them exactly.
func (rec *recorder) record(st *state) {
	if len(rec.checks) >= maxCheckpoints {
		return
	}
	if len(rec.checks) == 0 {
		rec.width = len(st.free)
	}
	rec.grow(len(st.results))
	rec.nextStamp()
	cp := checkpoint{clock: st.clock, busy: st.busy}
	live := rec.spare[:0]
	cp.queue.from = len(rec.queue)
	for _, q := range st.queue {
		live = append(live, q.j.idx)
		rec.queue = append(rec.queue, rec.qcheck(q))
	}
	cp.queue.to = len(rec.queue)
	cp.runs.from = len(rec.runs)
	for _, r := range st.runs {
		live = append(live, r.q.j.idx)
		rec.runs = append(rec.runs, runCheck{
			q:        rec.qcheck(r.q),
			nodes:    rec.appendNodes(r.nodes),
			planner:  r.planner,
			plan:     r.plan,
			iters:    r.iters,
			segStart: r.segStart,
			finish:   r.finish,
		})
	}
	cp.runs.to = len(rec.runs)
	for _, i := range rec.live {
		if rec.seen[i] != rec.stamp {
			rec.finals = append(rec.finals, rec.logRow(i, &st.results[i]))
		}
	}
	cp.finals, cp.rows, cp.nodes = len(rec.finals), len(rec.rows), len(rec.nodes)
	prev := checkpoint{free: -1, failed: -1, factors: -1, tenants: span{-1, -1}}
	if k := len(rec.checks); k > 0 {
		prev = rec.checks[k-1]
	}
	cp.free = logTable(&rec.free, st.free, prev.free, rec.width)
	cp.failed = logTable(&rec.failed, st.failed, prev.failed, rec.width)
	cp.factors = logTable(&rec.factors, st.factors, prev.factors, rec.width)
	if prev.tenants.from >= 0 && slices.Equal(rec.tenants[prev.tenants.from:prev.tenants.to], st.tenantBusy) {
		cp.tenants = prev.tenants
	} else {
		cp.tenants.from = len(rec.tenants)
		rec.tenants = append(rec.tenants, st.tenantBusy...)
		cp.tenants.to = len(rec.tenants)
	}
	rec.checks = append(rec.checks, cp)
	rec.live, rec.spare = live, rec.live
}

// logRow names the row of the job at trace index i at this record and
// marks the job seen at it: the job's row entry at the previous record
// when the job was live there and its row has not changed since, and
// otherwise a new entry.
func (rec *recorder) logRow(i int, row *Placement) rowCheck {
	prev := rec.seen[i] == rec.stamp-1
	rec.seen[i] = rec.stamp
	if prev {
		e := &rec.rows[rec.rowAt[i]]
		logged := e.row
		logged.Nodes = rec.nodes[e.nodes.from:e.nodes.to]
		if sameRow(&logged, row) {
			return rowCheck{i, rec.rowAt[i]}
		}
	}
	e := rowEntry{row: *row, nodes: rec.appendNodes(row.Nodes)}
	e.row.Nodes = nil
	rec.rowAt[i] = len(rec.rows)
	rec.rows = append(rec.rows, e)
	return rowCheck{i, rec.rowAt[i]}
}

func (rec *recorder) qcheck(q *qentry) qcheck {
	return qcheck{
		rowCheck: rec.logRow(q.j.idx, q.res),
		ready:    q.ready,
		remIters: q.remIters,
		started:  q.started,
		lastErr:  q.lastErr,
	}
}

func (rec *recorder) appendNodes(nodes []int) span {
	from := len(rec.nodes)
	rec.nodes = append(rec.nodes, nodes...)
	return span{from, len(rec.nodes)}
}

// logTable returns where the live node table sits in its log: at prev,
// the previous checkpoint's entry (-1: none), when that holds the same
// values, and otherwise appended as a new entry.
func logTable[T comparable](log *[]T, live []T, prev, width int) int {
	if prev >= 0 && slices.Equal((*log)[prev:prev+width], live) {
		return prev
	}
	i := len(*log)
	*log = append(*log, live...)
	return i
}

// sameRow reports whether two placement rows are identical. Floats are
// compared by their bits, so a row whose value only changed sign of zero
// is logged again rather than shared away.
func sameRow(a, b *Placement) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.JobID == b.JobID && slices.Equal(a.Nodes, b.Nodes) && a.Degrees == b.Degrees &&
		same(a.Start, b.Start) && same(a.Finish, b.Finish) && same(a.Waited, b.Waited) &&
		same(a.IterSeconds, b.IterSeconds) && same(a.Throughput, b.Throughput) && same(a.TFLOPS, b.TFLOPS) &&
		a.Partition == b.Partition && a.Backfilled == b.Backfilled &&
		a.Evictions == b.Evictions && a.Replans == b.Replans && same(a.Recovery, b.Recovery) &&
		a.Preemptions == b.Preemptions && a.MissedDeadline == b.MissedDeadline && a.Unplaced == b.Unplaced
}

// grow sizes the per-job tables for a trace of n jobs, keeping what they
// hold.
func (rec *recorder) grow(n int) {
	if d := n - len(rec.seen); d > 0 {
		rec.seen = append(rec.seen, make([]uint32, d)...)
		rec.rowAt = append(rec.rowAt, make([]int, d)...)
	}
}

// nextStamp starts a record. Stamps start at 2, so a job whose seen
// entry is 0 never reads as seen at the previous record; on wrap-around
// every job is marked unseen again.
func (rec *recorder) nextStamp() {
	if rec.stamp++; rec.stamp < 2 {
		clear(rec.seen)
		rec.stamp = 2
	}
}

// truncate keeps the oldest k checkpoints, rewinds every log to where the
// newest of them ends, and follows that checkpoint again: the next
// record owes the final rows of its live jobs and shares their rows.
func (rec *recorder) truncate(k int) {
	rec.checks = rec.checks[:k]
	rec.live = rec.live[:0]
	rec.nextStamp()
	if k == 0 {
		rec.queue, rec.runs, rec.finals = rec.queue[:0], rec.runs[:0], rec.finals[:0]
		rec.rows, rec.nodes, rec.tenants = rec.rows[:0], rec.nodes[:0], rec.tenants[:0]
		rec.free, rec.failed, rec.factors = rec.free[:0], rec.failed[:0], rec.factors[:0]
		return
	}
	top := &rec.checks[k-1]
	rec.queue, rec.runs, rec.finals = rec.queue[:top.queue.to], rec.runs[:top.runs.to], rec.finals[:top.finals]
	rec.rows, rec.nodes, rec.tenants = rec.rows[:top.rows], rec.nodes[:top.nodes], rec.tenants[:top.tenants.to]
	rec.free = rec.free[:top.free+rec.width]
	rec.failed = rec.failed[:top.failed+rec.width]
	rec.factors = rec.factors[:top.factors+rec.width]
	follow := func(rc rowCheck) {
		rec.live = append(rec.live, rc.idx)
		rec.grow(rc.idx + 1)
		rec.seen[rc.idx], rec.rowAt[rc.idx] = rec.stamp, rc.row
	}
	for i := top.queue.from; i < top.queue.to; i++ {
		follow(rec.queue[i].rowCheck)
	}
	for i := top.runs.from; i < top.runs.to; i++ {
		follow(rec.runs[i].q.rowCheck)
	}
}

// invalidateFrom drops every checkpoint taken at or after the change
// point: state at those instants can depend on the mutation.
func (rec *recorder) invalidateFrom(t float64) {
	k, _ := slices.BinarySearchFunc(rec.checks, t, func(cp checkpoint, t float64) int { return cmp.Compare(cp.clock, t) })
	rec.truncate(k)
}

// reset discards all checkpoints.
func (rec *recorder) reset() { rec.truncate(0) }

// popLast drops the newest checkpoint. Resume restores it first, then
// re-runs its instant — a fixed-point no-op on the restored state — and
// re-records it, so the stack stays free of duplicates.
func (rec *recorder) popLast() {
	if len(rec.checks) > 0 {
		rec.truncate(len(rec.checks) - 1)
	}
}

// restore rebuilds a live replay state from the newest checkpoint
// against the live jobs in trace order, copying the tables and every row
// out; the rows' Nodes share one backing array. It returns false when
// the checkpoint's node tables do not cover the fleet, or when a
// snapshotted job is not at its index in the trace — a sign the caller's
// invalidation missed a mutation — so the caller falls back to a full
// recorded replay instead of resuming from a stale base.
func (rec *recorder) restore(s *Scheduler, pol Policy, jobs []*rjob) (*state, bool) {
	cp := &rec.checks[len(rec.checks)-1]
	n := s.topo.NumNodes()
	if rec.width != n {
		return nil, false
	}
	st := &state{
		sch:        s,
		pol:        pol,
		clock:      cp.clock,
		free:       slices.Clone(rec.free[cp.free : cp.free+n]),
		failed:     slices.Clone(rec.failed[cp.failed : cp.failed+n]),
		factors:    slices.Clone(rec.factors[cp.factors : cp.factors+n]),
		busy:       cp.busy,
		tenantBusy: slices.Clone(rec.tenants[cp.tenants.from:cp.tenants.to]),
		results:    make([]Placement, len(jobs)),
	}
	for i, j := range jobs {
		st.results[i] = Placement{JobID: j.job.ID}
	}
	finals := rec.finals[:cp.finals]
	queue := rec.queue[cp.queue.from:cp.queue.to]
	runs := rec.runs[cp.runs.from:cp.runs.to]
	size := func(sp span) int { return sp.to - sp.from }
	total := 0
	for _, f := range finals {
		total += size(rec.rows[f.row].nodes)
	}
	for _, q := range queue {
		total += size(rec.rows[q.row].nodes)
	}
	for _, r := range runs {
		total += size(rec.rows[r.q.row].nodes) + size(r.nodes)
	}
	buf := make([]int, 0, total)
	nodes := func(sp span) []int {
		if sp.from == sp.to {
			return nil
		}
		from := len(buf)
		buf = append(buf, rec.nodes[sp.from:sp.to]...)
		return buf[from:len(buf):len(buf)]
	}
	put := func(rc rowCheck) bool {
		e := &rec.rows[rc.row]
		if rc.idx >= len(jobs) || jobs[rc.idx].job.ID != e.row.JobID {
			return false
		}
		row := &st.results[rc.idx]
		*row = e.row
		row.Nodes = nodes(e.nodes)
		return true
	}
	for _, f := range finals {
		if !put(f) {
			return nil, false
		}
	}
	entries := make([]qentry, len(queue)+len(runs))
	restoreQ := func(qc *qcheck, q *qentry) bool {
		if !put(qc.rowCheck) {
			return false
		}
		*q = qentry{
			j:        jobs[qc.idx],
			ready:    qc.ready,
			remIters: qc.remIters,
			started:  qc.started,
			lastErr:  qc.lastErr,
			res:      &st.results[qc.idx],
		}
		return true
	}
	st.queue = make([]*qentry, len(queue))
	for i := range queue {
		if !restoreQ(&queue[i], &entries[i]) {
			return nil, false
		}
		st.queue[i] = &entries[i]
	}
	entries = entries[len(queue):]
	rs := make([]run, len(runs))
	st.runs = make([]*run, len(runs))
	for i := range runs {
		rc := &runs[i]
		if !restoreQ(&rc.q, &entries[i]) {
			return nil, false
		}
		rs[i] = run{
			q:        &entries[i],
			nodes:    nodes(rc.nodes),
			planner:  rc.planner,
			plan:     rc.plan,
			iters:    rc.iters,
			segStart: rc.segStart,
			finish:   rc.finish,
		}
		st.runs[i] = &rs[i]
	}
	return st, true
}

// resume replays a Manager's live set, reusing the recorder's newest
// surviving checkpoint as the starting state when one exists. jobs are
// the live jobs as resolved at Submit, in the manager's (submit, id)
// trace order with their trace indices stamped — so they are their own
// arrival order; evs is the live timeline as lowered when it was last
// edited, and policy was validated when it was set, so nothing here
// re-resolves, re-validates, re-lowers or re-sorts. The caller must have
// invalidated the recorder from every mutation's change point since the
// last recorded replay; under that contract resume is bit-identical to
// Replay of the same live trace (see the package differential tests).
func (s *Scheduler) resume(jobs []*rjob, evs []scenario.Event, policy string, rec *recorder) (*Schedule, error) {
	pol, err := PolicyByName(policy)
	if err != nil {
		rec.reset()
		return nil, err
	}
	if len(rec.checks) > 0 {
		st, ok := rec.restore(s, pol, jobs)
		rec.popLast()
		if ok {
			ai, ei := 0, 0
			for ai < len(jobs) && jobs[ai].job.Submit <= st.clock {
				ai++
			}
			for ei < len(evs) && evs[ei].At <= st.clock {
				ei++
			}
			ei = st.run(jobs, evs, ai, ei, rec)
			return buildSchedule("", policy, jobs, st, ei), nil
		}
		rec.reset()
	}
	st := newState(s, pol, jobs)
	ei := st.run(jobs, evs, 0, 0, rec)
	return buildSchedule("", policy, jobs, st, ei), nil
}

// eventChange reports the earliest instant an event mutation can alter
// the replay.
func eventChange(evs []scenario.Event) float64 {
	t := math.Inf(1)
	for _, ev := range evs {
		t = min(t, ev.At)
	}
	return t
}
