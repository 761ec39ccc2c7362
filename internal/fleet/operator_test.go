package fleet

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"holmes/internal/engine"
	"holmes/internal/scenario"
)

func TestFakeClock(t *testing.T) {
	c := NewFakeClock()
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %g", c.Now())
	}
	past := c.After(0)
	select {
	case <-past:
	default:
		t.Fatal("After(now) must fire immediately")
	}
	future := c.After(10)
	select {
	case <-future:
		t.Fatal("After(10) fired at t=0")
	default:
	}
	c.Advance(9.5)
	select {
	case <-future:
		t.Fatal("After(10) fired at t=9.5")
	default:
	}
	c.Advance(0.5)
	select {
	case <-future:
	default:
		t.Fatal("After(10) did not fire at t=10")
	}
}

func TestRealClockAfter(t *testing.T) {
	c := NewRealClock()
	select {
	case <-c.After(c.Now()):
	case <-time.After(5 * time.Second):
		t.Fatal("real After(now) did not fire")
	}
	if n1, n2 := c.Now(), c.Now(); n2 < n1 {
		t.Fatal("real clock went backwards")
	}
}

// testOp builds an operator on a fake clock over the given journal dir.
func testOp(t *testing.T, eng *engine.Engine, dir string, clock Clock, every int) *Operator {
	t.Helper()
	op, err := NewOperator(eng, Spec{Env: "Hybrid", Nodes: 4}, OperatorConfig{
		Clock:         clock,
		Journal:       filepath.Join(dir, "fleet.journal"),
		SnapshotEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// at advances the operator's fake clock so op.Now() lands exactly on t
// (script times are small integers, so the float arithmetic is exact).
func at(op *Operator, c *FakeClock, t float64) { c.Advance(t - op.Now()) }

func TestOperatorLifecycle(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()
	clock := NewFakeClock()
	op := testOp(t, eng, dir, clock, 1000)
	defer op.Abort()

	// Zero submit stamps with the wall instant; explicit stamps stick.
	at(op, clock, 3)
	if err := op.Submit(Job{ID: "live", GPUs: 16, Iterations: 2, Model: pg1()}); err != nil {
		t.Fatal(err)
	}
	if err := op.Submit(Job{ID: "scripted", Submit: 7, GPUs: 16, Iterations: 1, Model: pg1()}); err != nil {
		t.Fatal(err)
	}
	sched, err := op.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs[0].JobID != "live" {
		t.Fatalf("trace order: %s first, want live", sched.Jobs[0].JobID)
	}
	st, ok, err := op.Job("live")
	if err != nil || !ok {
		t.Fatalf("job lookup: %v %v", ok, err)
	}
	if st.Start != 3 {
		t.Fatalf("live job stamped at %g, want the wall instant 3", st.Start)
	}
	if st.State != "running" {
		t.Fatalf("state %q at t=3, want running (placed at submit)", st.State)
	}
	sp, _, _ := op.Job("scripted")
	if sp.State != "queued" {
		t.Fatalf("scripted job state %q at t=3, want queued", sp.State)
	}

	// Walk the wall clock past both finishes: states flip to done, and
	// the idle-barrier tick retires everything into Done.
	at(op, clock, 1000)
	st, _, _ = op.Job("live")
	if st.State != "done" {
		t.Fatalf("state %q after finish, want done", st.State)
	}
	op.tick()
	if op.Len() != 0 {
		t.Fatalf("%d live jobs after idle-barrier retirement", op.Len())
	}
	done := op.Done()
	if len(done) != 2 {
		t.Fatalf("retired %d jobs, want 2", len(done))
	}
	if _, ok, _ := op.Job("live"); !ok {
		t.Fatal("retired job vanished from lookup")
	}
	if err := op.Submit(Job{ID: "live", GPUs: 8, Model: pg1()}); err == nil {
		t.Fatal("re-submitting a retired ID must be refused")
	}
	// Retirement cut a snapshot and reset the journal.
	if _, err := os.Stat(filepath.Join(dir, "fleet.journal.snap")); err != nil {
		t.Fatalf("no snapshot after retirement: %v", err)
	}
	if op.j.Seq() == 0 {
		t.Fatal("journal seq reset to zero; numbering must continue")
	}
}

// opScript drives one operator through the shared soak script up to
// step n (aligning the fake clock to absolute instants, so runs on
// different operators are comparable bit for bit).
func opScript(t *testing.T, op *Operator, clock *FakeClock, from, to int) {
	t.Helper()
	steps := []func(){
		func() {
			at(op, clock, 1)
			must(t, op.Submit(Job{ID: "w1", GPUs: 16, Iterations: 3, Model: pg1(), Tenant: "t1"}))
		},
		func() {
			at(op, clock, 2)
			must(t, op.Submit(Job{ID: "w2", GPUs: 16, Iterations: 3, Model: pg1(), Priority: 1}))
		},
		func() { at(op, clock, 3); must(t, op.SetPolicy("priority")) },
		func() {
			at(op, clock, 4)
			must(t, op.ApplyEvent(scenario.Event{Kind: scenario.DegradeNIC, At: 6, Node: 0, Class: scenario.ClassRDMA, Factor: 0.5}))
		},
		func() {
			at(op, clock, 5)
			must(t, op.Submit(Job{ID: "w3", GPUs: 32, Iterations: 1, Model: pg1(), Priority: 3, Deadline: 900}))
		},
		func() {
			at(op, clock, 6)
			must(t, op.Submit(Job{ID: "w4", GPUs: 8, Iterations: 2, Model: pg1(), Tenant: "t1"}))
		},
		func() {
			at(op, clock, 8)
			if _, err := op.Cancel("w4"); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			at(op, clock, 9)
			must(t, op.Submit(Job{ID: "w5", GPUs: 8, Iterations: 1, Model: pg1(), Weight: 2}))
		},
	}
	for i := from; i < to; i++ {
		steps[i]()
	}
}

const opScriptLen = 8

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestOperatorKillMidSoakRecovery is the crash-recovery contract: an
// operator killed cold mid-soak (no snapshot, no clean shutdown, a
// torn record on the tail) and restarted from its journal must resume
// and finish the soak bit-identically to an operator that never died.
func TestOperatorKillMidSoakRecovery(t *testing.T) {
	eng := engine.New(engine.Config{})

	// Control run: never killed.
	dirC := t.TempDir()
	clockC := NewFakeClock()
	ctl := testOp(t, eng, dirC, clockC, 1000)
	defer ctl.Abort()
	opScript(t, ctl, clockC, 0, opScriptLen)

	// Victim run: killed after step 5, with a torn half-record as the
	// crash leaves it, then recovered and driven through the rest.
	dirV := t.TempDir()
	clockV := NewFakeClock()
	vic := testOp(t, eng, dirV, clockV, 1000)
	opScript(t, vic, clockV, 0, 5)
	preKill := vic.Now()
	must(t, vic.Abort())
	jpath := filepath.Join(dirV, "fleet.journal")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	must(t, err)
	_, err = f.WriteString(`{"seq":99,"kind":"subm`)
	must(t, err)
	f.Close()

	clockV2 := NewFakeClock()
	rec := testOp(t, eng, dirV, clockV2, 1000)
	defer rec.Abort()
	if now := rec.Now(); now < preKill-1e-9 {
		t.Fatalf("recovered wall clock %g went backwards past %g", now, preKill)
	}
	if rec.Policy() != "priority" {
		t.Fatalf("recovered policy %q, want priority", rec.Policy())
	}
	opScript(t, rec, clockV2, 5, opScriptLen)

	// Bit-identical live schedules while the soak is still in flight.
	schedC, err := ctl.Schedule()
	must(t, err)
	schedR, err := rec.Schedule()
	must(t, err)
	if a, b := marshalSched(t, schedC), marshalSched(t, schedR); a != b {
		t.Fatalf("recovered schedule diverged from the unkilled run:\nunkilled:  %s\nrecovered: %s", a, b)
	}

	// Run both to quiescence: identical final placements for every job.
	at(ctl, clockC, 5000)
	at(rec, clockV2, 5000)
	ctl.tick()
	rec.tick()
	doneC, doneR := ctl.Done(), rec.Done()
	if len(doneC) == 0 {
		t.Fatal("control run retired nothing; the soak never completed")
	}
	sortPlacements(doneC)
	sortPlacements(doneR)
	if len(doneC) != len(doneR) {
		t.Fatalf("retired %d vs %d jobs", len(doneC), len(doneR))
	}
	for i := range doneC {
		if diff := diffPlacements(doneC[i], doneR[i]); diff != "" {
			t.Errorf("job %s final placement diverged after recovery:\n%s", doneC[i].JobID, diff)
		}
	}
}

func sortPlacements(ps []Placement) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].JobID < ps[b].JobID })
}

// TestOperatorSnapshotJournalEquivalence is the codec property test:
// recovering through aggressive snapshot+journal cycles (snapshot
// after every record, kill and restart after every script step) must
// land on the same state as one uninterrupted journal-only run.
func TestOperatorSnapshotJournalEquivalence(t *testing.T) {
	eng := engine.New(engine.Config{})

	dirA := t.TempDir()
	clockA := NewFakeClock()
	plain := testOp(t, eng, dirA, clockA, 100000)
	defer plain.Abort()
	opScript(t, plain, clockA, 0, opScriptLen)

	dirB := t.TempDir()
	var churn *Operator
	resume := 0.0
	for i := 0; i < opScriptLen; i++ {
		clock := NewFakeClock()
		churn = testOp(t, eng, dirB, clock, 1)
		if now := churn.Now(); now > resume {
			resume = now
		}
		clock.Advance(resume - churn.Now()) // never let wall time regress between lives
		opScript(t, churn, clock, i, i+1)
		must(t, churn.Snapshot())
		resume = churn.Now()
		must(t, churn.Abort())
	}
	clock := NewFakeClock()
	churn = testOp(t, eng, dirB, clock, 1)
	defer churn.Abort()

	schedA, err := plain.Schedule()
	must(t, err)
	schedB, err := churn.Schedule()
	must(t, err)
	if a, b := marshalSched(t, schedA), marshalSched(t, schedB); a != b {
		t.Fatalf("snapshot-churned state diverged from journal-only run:\nplain: %s\nchurn: %s", a, b)
	}
	if plain.Policy() != churn.Policy() {
		t.Fatalf("policy diverged: %q vs %q", plain.Policy(), churn.Policy())
	}
}

// TestOperatorRejectsForeignState: a journal or snapshot from a
// different fleet spec must refuse to load rather than quietly
// scheduling on the wrong topology.
func TestOperatorRejectsForeignState(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()
	clock := NewFakeClock()
	op := testOp(t, eng, dir, clock, 1000)
	must(t, op.Submit(Job{ID: "a", GPUs: 8, Model: pg1()}))
	must(t, op.Abort())

	_, err := NewOperator(eng, Spec{Env: "InfiniBand", Nodes: 8}, OperatorConfig{
		Clock:   NewFakeClock(),
		Journal: filepath.Join(dir, "fleet.journal"),
	})
	if err == nil {
		t.Fatal("operator recovered a journal written for a different fleet")
	}
}

// TestOperatorJournalSeqSeededFromSnapshot: a snapshot truncates the
// journal, so a restarted operator must resume sequence numbering from
// the snapshot's Seq. Regression: when the restarted journal numbered
// from 1, mutations acknowledged after the restart fell into the range
// the snapshot covers, and the *next* recovery silently skipped them —
// losing fsync'd, acknowledged work.
func TestOperatorJournalSeqSeededFromSnapshot(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()

	op := testOp(t, eng, dir, NewFakeClock(), 100000)
	must(t, op.Submit(Job{ID: "a", GPUs: 8, Iterations: 1, Model: pg1()}))
	must(t, op.Submit(Job{ID: "b", GPUs: 8, Iterations: 1, Model: pg1()}))
	must(t, op.Snapshot()) // covers seq 1..3, journal truncated
	snapSeq := op.j.Seq()
	must(t, op.Abort()) // crash: empty journal next to the snapshot

	op = testOp(t, eng, dir, NewFakeClock(), 100000)
	must(t, op.Submit(Job{ID: "c", GPUs: 8, Iterations: 1, Model: pg1()}))
	if seq := op.j.Seq(); seq <= snapSeq {
		t.Fatalf("journal seq %d after recovery, must continue past the snapshot's %d", seq, snapSeq)
	}
	must(t, op.Abort()) // second crash, this time with a journaled suffix

	op = testOp(t, eng, dir, NewFakeClock(), 100000)
	defer op.Abort()
	if !op.Has("c") {
		t.Fatal("acknowledged post-snapshot submit lost by the second recovery")
	}
	if op.Len() != 3 {
		t.Fatalf("recovered %d live jobs, want 3", op.Len())
	}
}

// TestOperatorRetireRollsBackOnJournalFailure: when the retire record
// cannot be journaled, the in-memory retirement must be undone — jobs
// back in the live set, done map untouched — so memory never runs
// ahead of durable state.
func TestOperatorRetireRollsBackOnJournalFailure(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()
	clock := NewFakeClock()
	op := testOp(t, eng, dir, clock, 100000)
	must(t, op.Submit(Job{ID: "a", GPUs: 8, Iterations: 1, Model: pg1()}))
	must(t, op.j.Close()) // every append now fails
	at(op, clock, 5000)   // past the finish edge: idle barrier reached

	op.mu.Lock()
	err := op.tryRetireLocked()
	op.mu.Unlock()
	if err == nil {
		t.Fatal("retirement must surface the journal failure")
	}
	if op.Len() != 1 {
		t.Fatalf("%d live jobs after failed retirement, want the rollback to restore 1", op.Len())
	}
	if done := op.Done(); len(done) != 0 {
		t.Fatalf("done set %v after failed retirement, want empty", done)
	}
	must(t, op.Abort())
}

// TestOperatorSnapshotFailureKeepsJournal: a snapshot that cannot be
// published must leave the journal intact, so recovery still replays
// the full record set.
func TestOperatorSnapshotFailureKeepsJournal(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()
	op := testOp(t, eng, dir, NewFakeClock(), 100000)
	must(t, op.Submit(Job{ID: "a", GPUs: 8, Iterations: 1, Model: pg1()}))
	op.mu.Lock()
	op.snapPath = filepath.Join(dir, "missing", "fleet.snap") // unpublishable
	op.mu.Unlock()
	if err := op.Snapshot(); err == nil {
		t.Fatal("snapshot into a missing directory must fail")
	}
	must(t, op.Abort())

	rec := testOp(t, eng, dir, NewFakeClock(), 100000)
	defer rec.Abort()
	if !rec.Has("a") {
		t.Fatal("failed snapshot truncated the journal: the submit did not survive")
	}
}

// TestOperatorCloseAbortIdempotent: Close and Abort in any combination
// or repetition must never panic on the stop channel.
func TestOperatorCloseAbortIdempotent(t *testing.T) {
	eng := engine.New(engine.Config{})
	op := testOp(t, eng, t.TempDir(), NewFakeClock(), 1000)
	must(t, op.Close())
	if err := op.Abort(); err != nil {
		t.Fatalf("abort after close: %v", err)
	}
	_ = op.Close() // may report the closed journal, must not panic
}

// TestOperatorEventLoopRetires proves the wall-clock driver itself (no
// manual ticks) wakes at the finish edge and retires: the loop's
// After(edge) wiring, not the test, drives the transition.
func TestOperatorEventLoopRetires(t *testing.T) {
	eng := engine.New(engine.Config{})
	dir := t.TempDir()
	clock := NewFakeClock()
	op := testOp(t, eng, dir, clock, 1000)
	defer op.Abort()
	must(t, op.Submit(Job{ID: "solo", GPUs: 8, Iterations: 1, Model: pg1()}))
	st, _, err := op.Job("solo")
	must(t, err)
	if st.Finish <= 0 {
		t.Fatalf("no projected finish: %+v", st)
	}
	// Let the loop pick up the submit and arm its edge timer, then step
	// the clock past the finish edge and wait for the autonomous retire.
	deadline := time.After(10 * time.Second)
	for {
		clock.Advance(st.Finish + 1 - clock.Now())
		if op.Len() == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("event loop never retired the finished job")
		case <-time.After(time.Millisecond):
		}
	}
	if got := op.Done(); len(got) != 1 || got[0].JobID != "solo" {
		t.Fatalf("done = %+v, want the solo job", got)
	}
}

// TestOperatorLoopArmsClockTime: the loop arms its timer in clock time.
// An operator born at clock instant 1e4 counts its own time from 0, so
// a finish edge at operator instant F must arm the clock at 1e4+F;
// arming F itself fires at once and spins until the edge.
func TestOperatorLoopArmsClockTime(t *testing.T) {
	clock := NewFakeClock()
	clock.Set(1e4)
	op := testOp(t, engine.New(engine.Config{}), t.TempDir(), clock, 1000)
	defer op.Abort()
	must(t, op.Submit(Job{ID: "solo", GPUs: 8, Iterations: 1, Model: pg1()}))
	st, _, err := op.Job("solo")
	must(t, err)
	deadline := time.Now().Add(10 * time.Second)
	for !clock.armed(1e4 + st.Finish) {
		if time.Now().After(deadline) {
			t.Fatalf("loop never armed clock instant %g", 1e4+st.Finish)
		}
		time.Sleep(time.Millisecond)
	}
}

// armed reports whether a waiter is pending at clock instant at.
func (c *FakeClock) armed(at float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.waiters {
		if w.at == at {
			return true
		}
	}
	return false
}
