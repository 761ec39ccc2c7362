package fleet

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// A poll redoes only what its mutation changed: eviction recovery
// factors come from the plan cache once computed, and checkpoints share
// the rows the previous checkpoint already holds. The tests here pin
// both savings and the aliasing rules that keep them invisible.

// evictionTrace runs one whole-fleet job on the 4-node Hybrid fleet and
// fails node at instant 10, mid-run.
func evictionTrace(node int) *Trace {
	tr := hybridTrace(Job{ID: "whole", GPUs: 32, Iterations: 400, Model: pg1()})
	tr.Scenario = &scenario.Scenario{
		Name:   "evict",
		Events: []scenario.Event{{Kind: scenario.FailNode, At: 10, Node: node}},
	}
	return tr
}

// recoveryEntries counts the engine's memoized recovery factors.
func recoveryEntries(eng *engine.Engine) int {
	n := 0
	for _, pe := range eng.PlanEntries() {
		if _, ok := pe.Key.(recoveryKey); ok {
			n++
		}
	}
	return n
}

// TestRecoveryMemoAddsNoSearch resumes a suffix that re-crosses an
// eviction the previous poll already measured: the recovery factor must
// come from the plan cache, so the poll runs no search at all, and the
// schedule still equals the oracle's.
func TestRecoveryMemoAddsNoSearch(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{})
	inc, err := NewManager(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewManager(engine.New(engine.Config{FullRecompute: true}), topo)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	step := func(desc string, f func(m *Manager) error) {
		t.Helper()
		log = append(log, desc)
		for _, m := range []*Manager{inc, oracle} {
			if err := f(m); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}
		compareManagers(t, inc, oracle, log)
	}
	step("submit whole", func(m *Manager) error {
		return m.Submit(Job{ID: "whole", GPUs: 32, Iterations: 400, Model: pg1()})
	})
	before := eng.SearchStats().Searches
	step("fail node 2 at 10", func(m *Manager) error {
		return m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 10, Node: 2})
	})
	if eng.SearchStats().Searches == before {
		t.Fatal("the first eviction ran no search: the test no longer measures a recovery")
	}
	if recoveryEntries(eng) != 1 {
		t.Fatalf("%d recovery entries after one eviction, want 1", recoveryEntries(eng))
	}
	before = eng.SearchStats().Searches
	// Restoring an untouched node is a no-op, but its instant (5) lies
	// before the eviction, so the poll resumes from the checkpoint at 0
	// and replays the eviction again.
	step("restore untouched node 0 at 5", func(m *Manager) error {
		return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 5, Node: 0})
	})
	sched, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs[0].Evictions != 1 || sched.Jobs[0].Recovery <= 0 {
		t.Fatalf("the resumed poll did not re-cross the eviction: %+v", sched.Jobs[0])
	}
	if got := eng.SearchStats().Searches - before; got != 0 {
		t.Fatalf("re-crossing a measured eviction ran %d search(es), want 0", got)
	}
}

// TestRecoveryMemoKeysTheFailedNode fails each node of one whole-fleet
// slice in turn on a shared engine: every factor must equal the
// FullRecompute oracle's, which stores none. The slice spans both
// clusters, so losing an InfiniBand node and losing a RoCE node leave
// different residual slices; a memo keyed on the slice alone would hand
// the second eviction the first one's factor.
func TestRecoveryMemoKeysTheFailedNode(t *testing.T) {
	eng := engine.New(engine.Config{})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	factors := map[float64]bool{}
	for node := 0; node < 4; node++ {
		got, err := Replay(eng, evictionTrace(node))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Replay(oracleEng, evictionTrace(node))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
			t.Fatalf("node %d: memoized schedule diverged from the oracle:\n got %s\nwant %s", node, g, w)
		}
		if got.Jobs[0].Evictions != 1 {
			t.Fatalf("node %d: %d evictions, want 1", node, got.Jobs[0].Evictions)
		}
		factors[got.Jobs[0].Recovery] = true
	}
	if len(factors) < 2 {
		t.Fatalf("every failed node gave the same recovery factor %v: the test cannot tell nodes apart", factors)
	}
	if n := recoveryEntries(eng); n != 4 {
		t.Fatalf("%d recovery entries for 4 distinct failed nodes, want 4", n)
	}
	if n := recoveryEntries(oracleEng); n != 0 {
		t.Fatalf("the FullRecompute engine memoized %d recovery factor(s), want none", n)
	}
}

// rowState builds a replay state holding the given number of finished
// rows and one running job, all of one tenant, as record sees it
// mid-replay.
func rowState(t *testing.T, finished int) *state {
	t.Helper()
	s, err := NewScheduler(engine.New(engine.Config{}), hybridTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*rjob, finished+1)
	for i := range jobs {
		jobs[i] = &rjob{idx: i, job: Job{ID: fmt.Sprintf("j%d", i), Tenant: "t"}, tenant: "t", weight: 1}
	}
	pol, err := PolicyByName("")
	if err != nil {
		t.Fatal(err)
	}
	st := newState(s, pol, jobs)
	st.clock = 100
	st.tenantBusy = []tenantUse{{tenant: "t", busy: 42}}
	for i := 0; i < finished; i++ {
		p := &st.results[i]
		p.Nodes = []int{i % 4, (i + 1) % 4}
		p.Start, p.Finish, p.IterSeconds, p.Partition = float64(i), float64(i+1), 0.5, "[4 4]"
	}
	q := &qentry{j: jobs[finished], ready: 90, remIters: 3, started: true, res: &st.results[finished]}
	r := &run{q: q, nodes: []int{2, 3}, iters: 3, segStart: 90, finish: 120}
	q.res.Nodes, q.res.Start, q.res.Finish = r.nodes, 90, 120
	st.runs = []*run{r}
	st.free[2], st.free[3] = false, false
	return st
}

// jobsOf lists the state's jobs in trace order, as resume hands them to
// restore.
func jobsOf(st *state) []*rjob {
	jobs := make([]*rjob, len(st.results))
	for i := range jobs {
		jobs[i] = &rjob{idx: i, job: Job{ID: st.results[i].JobID}, tenant: "t", weight: 1}
	}
	return jobs
}

// queueAll returns a copy of the state with the jobs at the given trace
// indices queued ahead of its own queue: the state of an earlier
// instant at which those jobs were still live.
func queueAll(st *state, idx ...int) *state {
	early := *st
	early.queue = nil
	for _, i := range idx {
		early.queue = append(early.queue, &qentry{j: &rjob{idx: i, job: Job{ID: st.results[i].JobID}}, res: &st.results[i]})
	}
	early.queue = append(early.queue, st.queue...)
	return &early
}

// restoreCheck restores the recorder's k-th checkpoint against the
// state's jobs, leaving the recorder as it is.
func restoreCheck(t *testing.T, rec *recorder, k int, st *state) *state {
	t.Helper()
	view := *rec
	view.checks = rec.checks[:k+1]
	got, ok := view.restore(st.sch, st.pol, jobsOf(st))
	if !ok {
		t.Fatalf("checkpoint %d was refused", k)
	}
	return got
}

// TestRecordSharesUnchangedRows pins the checkpoint cost: with 8 or 60
// finished jobs in the final-row log, re-recording an instant — a
// resume's pop and record — logs no row again and allocates nothing once
// the logs have grown, so the same at either count, and names each
// finished row once.
func TestRecordSharesUnchangedRows(t *testing.T) {
	for _, finished := range []int{8, 60} {
		st := rowState(t, finished)
		var rec recorder
		rec.record(queueAll(st, seq(finished)...))
		rec.record(st)
		if len(rec.finals) != finished {
			t.Fatalf("%d finished: %d final rows logged, want %d", finished, len(rec.finals), finished)
		}
		rows := len(rec.rows)
		allocs := testing.AllocsPerRun(100, func() {
			rec.popLast()
			rec.record(st)
		})
		if allocs != 0 {
			t.Errorf("%d finished: a record allocates %v times, want 0", finished, allocs)
		}
		if len(rec.checks) != 2 || len(rec.finals) != finished || len(rec.rows) != rows {
			t.Fatalf("%d finished: %d checkpoints, %d final rows and %d logged rows after re-recording, want 2, %d and %d",
				finished, len(rec.checks), len(rec.finals), len(rec.rows), finished, rows)
		}
		got := restoreCheck(t, &rec, 1, st)
		for i := range st.results {
			if !sameRow(&got.results[i], &st.results[i]) {
				t.Fatalf("%d finished: row %d restored as %+v, want %+v", finished, i, got.results[i], st.results[i])
			}
		}
	}
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRecordCopiesChangedRows pins record's row contract: a checkpoint
// holds the row of every job queued or running at it as it was then, a
// sign-of-zero change included, and the row of a job that left the queue
// and the runs as it was at the first record after it left; a record
// logs only the rows that changed since the previous one, and restored
// Nodes never alias the live rows'. The row of a job live at neither
// record is not read — by design, since the replay writes only live
// jobs' rows — so a finished row edited outside the replay is not seen.
func TestRecordCopiesChangedRows(t *testing.T) {
	st := rowState(t, 3) // j0..j2 finished, j3 running
	// j2 was requeued: it waits in the queue.
	st.queue = []*qentry{{
		j:     &rjob{idx: 2, job: Job{ID: "j2", Tenant: "t"}, tenant: "t", weight: 1},
		ready: 95, remIters: 1, started: true, res: &st.results[2],
	}}
	var rec recorder
	var want [][]Placement // per checkpoint, the rows it must restore
	check := func() {
		t.Helper()
		for k, rows := range want {
			got := restoreCheck(t, &rec, k, st)
			for i := range rows {
				if !sameRow(&got.results[i], &rows[i]) {
					t.Fatalf("checkpoint %d restored row %d as %+v, want %+v", k, i, got.results[i], rows[i])
				}
				if n := got.results[i].Nodes; len(n) > 0 && len(st.results[i].Nodes) > 0 && &n[0] == &st.results[i].Nodes[0] {
					t.Fatalf("checkpoint %d: restored row %d's Nodes alias the live row's", k, i)
				}
			}
		}
	}
	snap := func(zero ...int) []Placement {
		rows := make([]Placement, len(st.results))
		for i := range rows {
			rows[i] = st.results[i]
			rows[i].Nodes = slices.Clone(rows[i].Nodes)
			if slices.Contains(zero, i) {
				rows[i] = Placement{JobID: rows[i].JobID}
			}
		}
		return rows
	}
	logged := func(want int) {
		t.Helper()
		if got := len(rec.rows) - rec.checks[len(rec.checks)-2].rows; got != want {
			t.Fatalf("record %d logged %d rows, want %d", len(rec.checks), got, want)
		}
	}
	rec.record(st)
	want = append(want, snap(0, 1)) // j0 and j1 were never live at a record
	check()

	st.results[2].Waited = math.Copysign(0, -1) // queued; was +0
	st.results[3].Finish = 130                  // running
	st.results[1].Finish = 999                  // finished, edited outside the replay
	rec.record(st)
	want = append(want, snap(0, 1))
	check()
	logged(2)
	if !math.Signbit(want[1][2].Waited) {
		t.Fatal("the test no longer changes a sign of zero")
	}

	// j3 completes and j2 is declared unplaced: neither is live now, but
	// both were at the previous record, so their final rows are logged.
	st.runs, st.queue = nil, nil
	st.results[3].Finish = 140
	st.results[2].Unplaced = "gone"
	rec.record(st)
	want = append(want, snap(0, 1))
	check()
	logged(2)

	// Nothing is live at the previous record or at this one: no row is
	// read again, even one edited outside the replay.
	final := snap(0, 1)
	st.results[3].Finish = 150
	rec.record(st)
	want = append(want, final)
	check()
	logged(0)
}

// TestSameRowSeesEveryField changes each Placement field in turn: a
// field sameRow ignored would let a changed row be shared away, and a
// field the record dropped would restore stale.
func TestSameRowSeesEveryField(t *testing.T) {
	base := Placement{
		JobID: "j2", Nodes: []int{1, 2}, Degrees: Degrees{Tensor: 1, Pipeline: 2, Data: 1},
		Start: 1, Finish: 2, Waited: 0, IterSeconds: 0.5, Throughput: 3, TFLOPS: 4,
		Partition: "[1 1]", Evictions: 1, Replans: 1, Recovery: 0.5, Preemptions: 1, Unplaced: "",
	}
	if !sameRow(&base, &base) {
		t.Fatal("a row differs from itself")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		other := base
		other.Nodes = append([]int(nil), base.Nodes...)
		scramble(reflect.ValueOf(&other).Elem().Field(i))
		if sameRow(&base, &other) {
			t.Errorf("sameRow ignores a change to Placement.%s", typ.Field(i).Name)
		}
		st := rowState(t, 2) // j2 running
		st.results[2] = other
		var rec recorder
		rec.record(st)
		if got := restoreCheck(t, &rec, 0, st); !sameRow(&got.results[2], &other) {
			t.Errorf("a record drops Placement.%s: restored %+v, want %+v", typ.Field(i).Name, got.results[2], other)
		}
	}
	negZero := base
	negZero.Waited = math.Copysign(0, -1)
	if sameRow(&base, &negZero) {
		t.Error("sameRow treats -0 and +0 as the same row")
	}
}

// scramble overwrites every settable value reachable from v in place:
// strings, numbers and booleans change, and slices and structs are
// scrambled element by element without being replaced.
func scramble(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~")
	case reflect.Int:
		v.SetInt(v.Int() - 7)
	case reflect.Float64:
		v.SetFloat(v.Float() - 7)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scramble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scramble(v.Field(i))
		}
	}
}

// TestScrambledSchedulesDoNotReachCheckpoints scrambles every field and
// every Nodes entry of each schedule the incremental manager returns:
// later schedules, resumed from checkpoints recorded while those
// schedules were live, must still equal the oracle's.
func TestScrambledSchedulesDoNotReachCheckpoints(t *testing.T) {
	topo := hybridTopo(t)
	inc, err := NewManager(engine.New(engine.Config{}), topo)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewManager(engine.New(engine.Config{FullRecompute: true}), topo)
	if err != nil {
		t.Fatal(err)
	}
	muts := []mutator{
		{"submit a", func(m *Manager) error { return m.Submit(Job{ID: "a", GPUs: 16, Iterations: 2, Model: pg1()}) }},
		{"submit b", func(m *Manager) error {
			return m.Submit(Job{ID: "b", Submit: 1, GPUs: 16, Iterations: 3, Model: pg1()})
		}},
		{"submit c", func(m *Manager) error { return m.Submit(Job{ID: "c", Submit: 2, GPUs: 8, Iterations: 2, Model: pg1()}) }},
		{"submit late", func(m *Manager) error { return m.Submit(Job{ID: "late", Submit: 500, GPUs: 8, Model: pg1()}) }},
		{"fail node 1 at 3", func(m *Manager) error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 3, Node: 1})
		}},
		{"submit later", func(m *Manager) error { return m.Submit(Job{ID: "later", Submit: 900, GPUs: 16, Model: pg1()}) }},
		{"cancel late", func(m *Manager) error { m.Cancel("late"); return nil }},
	}
	var log []string
	for _, mut := range muts {
		log = append(log, mut.desc)
		for _, m := range []*Manager{inc, oracle} {
			if err := mut.apply(m); err != nil {
				t.Fatalf("%s: %v", mut.desc, err)
			}
		}
		compareManagers(t, inc, oracle, log)
		sched, err := inc.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		scramble(reflect.ValueOf(sched).Elem())
	}
}

// TestConcurrentManagersShareRecoveries polls two managers on one engine
// from separate goroutines through traces whose evictions hit the same
// slices, so their recovery lookups and stores race on the shared plan
// cache. Every schedule either manager returns must equal the oracle
// replay of its trace. Run under -race.
func TestConcurrentManagersShareRecoveries(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{Concurrency: 2})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = churnWithEvictions(eng, oracleEng, topo, g)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("manager %d: %v", g, err)
		}
	}
}

func churnWithEvictions(eng, oracleEng *engine.Engine, topo *topology.Topology, g int) error {
	m, err := NewManager(eng, topo)
	if err != nil {
		return err
	}
	ref, err := NewScheduler(oracleEng, topo)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return m.Submit(Job{ID: "x", GPUs: 32, Iterations: 200, Model: pg1()}) },
		func() error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: float64(5 + g), Node: 2 * g})
		},
		func() error { return m.Submit(Job{ID: "y", Submit: 1, GPUs: 16, Iterations: 50, Model: pg1()}) },
		func() error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 40, Node: 2 * g})
		},
		func() error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 60, Node: 3 - g})
		},
		func() error { m.Cancel("y"); return nil },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		got, err := m.Schedule()
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		m.mu.Lock()
		tr := m.trace()
		m.mu.Unlock()
		want, err := ref.Replay(tr)
		if err != nil {
			return fmt.Errorf("step %d oracle: %w", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("step %d: schedule diverged from the oracle replay:\n got %+v\nwant %+v", i, got.Jobs, want.Jobs)
		}
	}
	return nil
}

// TestRecordSharesEqualNodeTables: a checkpoint's node table is the
// previous checkpoint's entry in its log when the live table holds the
// same values, and a new entry as soon as one value differs; a table of
// the same length is not enough to share, and one changed table does not
// log the others again.
func TestRecordSharesEqualNodeTables(t *testing.T) {
	st := rowState(t, 2)
	var rec recorder
	rec.record(st)
	rec.record(st)
	first, second := rec.checks[0], rec.checks[1]
	if second.free != first.free || second.failed != first.failed || second.factors != first.factors {
		t.Fatal("unchanged node tables were logged again, not shared")
	}
	st.failed[1], st.free[1] = true, false
	st.factors[0] = nodeFactors{rdma: 0.5, eth: 1, degraded: true}
	rec.record(st)
	third := rec.checks[2]
	if third.free == second.free || third.failed == second.failed || third.factors == second.factors {
		t.Fatalf("changed node tables were shared: %+v after %+v", third, second)
	}
	got := restoreCheck(t, &rec, 2, st)
	if !got.failed[1] || got.free[1] || got.factors[0] != st.factors[0] {
		t.Fatalf("changed node tables restored stale: free %v failed %v factors %v", got.free, got.failed, got.factors)
	}
	if &got.free[0] == &st.free[0] || &got.failed[0] == &st.failed[0] || &got.factors[0] == &st.factors[0] {
		t.Fatal("a restored state holds a live node table")
	}
	early := restoreCheck(t, &rec, 0, st)
	if early.failed[1] || !early.free[1] || early.factors[0] != pristineFactors {
		t.Fatalf("recording a change wrote an earlier checkpoint: free %v failed %v factors %v", early.free, early.failed, early.factors)
	}
	st.free[0] = false
	rec.record(st)
	if fourth := rec.checks[3]; fourth.free == third.free || fourth.failed != third.failed || fourth.factors != third.factors {
		t.Fatalf("one changed table moved the others: %+v after %+v", fourth, third)
	}
}

// TestResumeAfterJobsLeaveTheLiveSet resumes just after a job left the
// queue and the runs: after a run completed, from the checkpoint
// recorded at its completion; and after a queue head was declared
// unplaced. That decision rests on no arrival or event being left, so
// the replay records nothing after it, and a submit or an event that
// follows it resumes from the instant's record made before it: the late
// job is backfilled behind the still-queued head, and a restored node
// lets the head run after all.
func TestResumeAfterJobsLeaveTheLiveSet(t *testing.T) {
	topo := hybridTopo(t)
	hasJob := func(rec *recorder, k int, id string) bool {
		cp := rec.checks[k]
		for _, q := range rec.queue[cp.queue.from:cp.queue.to] {
			if rec.rows[q.row].row.JobID == id {
				return true
			}
		}
		for _, r := range rec.runs[cp.runs.from:cp.runs.to] {
			if rec.rows[r.q.row].row.JobID == id {
				return true
			}
		}
		return false
	}
	cases := []struct {
		name string
		jobs []Job
		evs  []scenario.Event
		// left names the job that leaves the live set and the instant it
		// leaves at.
		left func(sched *Schedule) (id string, at float64)
		// queued reports whether the newest checkpoint up to that instant
		// still holds the job.
		queued bool
		then   []mutator
	}{
		{
			name: "completed",
			jobs: []Job{
				{ID: "a", GPUs: 16, Iterations: 2, Model: pg1()},
				{ID: "b", GPUs: 16, Iterations: 6, Model: pg1()},
			},
			left: func(s *Schedule) (string, float64) { return "a", s.Jobs[0].Finish },
		},
		{
			name: "unplaced",
			// Losing node 2 leaves three nodes for a four-node job: it is
			// evicted and, the fleet idle, declared unplaced at 10.
			jobs:   []Job{{ID: "whole", GPUs: 32, Iterations: 400, Model: pg1()}},
			evs:    []scenario.Event{{Kind: scenario.FailNode, At: 10, Node: 2}},
			left:   func(*Schedule) (string, float64) { return "whole", 10 },
			queued: true,
			then: []mutator{{"restore node 2 at 50", func(m *Manager) error {
				return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 50, Node: 2})
			}}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inc, err := NewManager(engine.New(engine.Config{}), topo)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewManager(engine.New(engine.Config{FullRecompute: true}), topo)
			if err != nil {
				t.Fatal(err)
			}
			var log []string
			step := func(mut mutator) {
				t.Helper()
				log = append(log, mut.desc)
				for _, m := range []*Manager{inc, oracle} {
					if err := mut.apply(m); err != nil {
						t.Fatalf("%s: %v", mut.desc, err)
					}
				}
				compareManagers(t, inc, oracle, log)
			}
			for _, j := range c.jobs {
				step(mutator{"submit " + j.ID, func(m *Manager) error { return m.Submit(j) }})
			}
			for _, ev := range c.evs {
				step(mutator{fmt.Sprintf("%s node %d at %g", ev.Kind, ev.Node, ev.At), func(m *Manager) error { return m.ApplyEvent(ev) }})
			}
			sched, err := inc.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			id, at := c.left(sched)
			if c.queued && placementOf(t, sched, id).Unplaced == "" {
				t.Fatalf("%s was placed: the test no longer declares a head unplaced", id)
			}
			newest := len(inc.rec.checks) - 1
			for k, cp := range inc.rec.checks {
				if cp.clock <= at {
					newest = k
				}
			}
			if clock := inc.rec.checks[newest].clock; clock != at || hasJob(&inc.rec, newest, id) != c.queued {
				t.Fatalf("the checkpoint to resume from is at %g holding %s=%v, want at %g holding it=%v",
					clock, id, hasJob(&inc.rec, newest, id), at, c.queued)
			}
			if c.queued && newest != len(inc.rec.checks)-1 {
				t.Fatal("an instant after the unplaced decision was recorded")
			}
			late := Job{ID: "late", Submit: math.Nextafter(at, math.Inf(1)), GPUs: 8, Iterations: 1, Model: pg1()}
			step(mutator{"submit late just after " + id + " left", func(m *Manager) error { return m.Submit(late) }})
			for _, mut := range c.then {
				step(mut)
			}
		})
	}
}

// TestFairOrdersByCompletedUsage: under fair, a tenant that finished a
// job earlier waits behind a tenant that has not, though it queued
// first. Neither tenant has a live run when the queue is sorted, so only
// the usage accrued by the completed segment tells them apart; fifo, the
// control, keeps the arrival order.
func TestFairOrdersByCompletedUsage(t *testing.T) {
	tr := hybridTrace(
		Job{ID: "a1", GPUs: 8, Iterations: 1, Model: pg1(), Tenant: "A"},
		Job{ID: "blocker", GPUs: 24, Iterations: 400, Model: pg1(), Tenant: "C"},
		Job{ID: "a2", Submit: 30, GPUs: 24, Iterations: 1, Model: pg1(), Tenant: "A"},
		Job{ID: "b1", Submit: 31, GPUs: 24, Iterations: 1, Model: pg1(), Tenant: "B"},
	)
	for _, c := range []struct {
		policy, first, second string
	}{{"fair", "b1", "a2"}, {"fifo", "a2", "b1"}} {
		tr.Policy = c.policy
		sched, err := Replay(engine.New(engine.Config{}), tr)
		if err != nil {
			t.Fatal(err)
		}
		a1, blocker := placementOf(t, sched, "a1"), placementOf(t, sched, "blocker")
		if a1.Finish >= 30 || blocker.Start != 0 || blocker.Finish <= 31 {
			t.Fatalf("%s: a1 runs %g..%g and the blocker %g..%g: a2 and b1 no longer queue behind a finished a1",
				c.policy, a1.Start, a1.Finish, blocker.Start, blocker.Finish)
		}
		first, second := placementOf(t, sched, c.first), placementOf(t, sched, c.second)
		if first.Start >= second.Start {
			t.Errorf("%s: %s starts at %g, not before %s at %g", c.policy, c.first, first.Start, c.second, second.Start)
		}
	}
}

// TestWarmPollFansNothingOut: once the plan cache holds every slice plan,
// carve and eviction recovery a poll needs, the poll resolves each of
// them with one lookup on the replay goroutine and hands nothing to the
// engine's worker pool, where goroutines start — though the engine runs
// four workers. fleet12's timeline evicts, replans and backfills, so
// every kind of lookup is crossed; a cold poll of the same trace must
// fan misses out, or the test measures nothing.
func TestWarmPollFansNothingOut(t *testing.T) {
	tr, err := LoadFile("testdata/fleet12.json")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := tr.Fleet.Topology()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Concurrency: 4})
	poll := func() (*Manager, *Schedule) {
		t.Helper()
		m, err := NewManager(eng, topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range tr.Jobs {
			if err := m.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetScenario(tr.Scenario); err != nil {
			t.Fatal(err)
		}
		sched, err := m.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		return m, sched
	}
	cold, coldSched := poll()
	if cold.sch.fanned.Load() == 0 {
		t.Fatal("a cold poll fanned no miss out: the test no longer measures the pool")
	}
	hits := eng.PlanCacheStats().Hits
	warm, warmSched := poll()
	if n := warm.sch.fanned.Load(); n != 0 {
		t.Fatalf("a poll whose every lookup hits handed %d score(s) to the worker pool", n)
	}
	if eng.PlanCacheStats().Hits == hits {
		t.Fatal("the warm poll read nothing from the plan cache")
	}
	if g, w := marshalSched(t, warmSched), marshalSched(t, coldSched); g != w {
		t.Fatalf("the warm poll diverged from the cold one:\n got %s\nwant %s", g, w)
	}
	evicted, replanned, backfilled := false, false, false
	for _, p := range warmSched.Jobs {
		evicted = evicted || p.Evictions > 0
		replanned = replanned || p.Replans > 0
		backfilled = backfilled || p.Backfilled
	}
	if !evicted || !replanned || !backfilled {
		t.Fatalf("fleet12 no longer evicts (%v), replans (%v) and backfills (%v)", evicted, replanned, backfilled)
	}
}
