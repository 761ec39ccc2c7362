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

// TestRecordSharesUnchangedRows pins the checkpoint cost: recording an
// instant allocates the same whether 8 or 60 finished rows sit in the
// state, because rows the previous checkpoint holds unchanged are shared,
// not copied.
func TestRecordSharesUnchangedRows(t *testing.T) {
	allocs := map[int]float64{}
	for _, finished := range []int{8, 60} {
		st := rowState(t, finished)
		var rec recorder
		rec.record(st)
		first := rec.checks[0]
		allocs[finished] = testing.AllocsPerRun(20, func() {
			rec.checks = rec.checks[:0]
			rec.record(st)
		})
		cp := rec.checks[0]
		for i, row := range cp.results {
			if row != first.results[i] {
				t.Fatalf("%d finished: row %d of an unchanged state was copied, not shared", finished, i)
			}
		}
	}
	if allocs[8] != allocs[60] {
		t.Fatalf("record allocates %v at 8 finished rows and %v at 60: rows are copied per checkpoint", allocs[8], allocs[60])
	}
}

// TestRecordCopiesChangedRows pins record's row contract: the row of a
// job queued or running at this record or at the previous one is copied
// when it differs from the base in any field, a sign-of-zero change
// included, and a copy's Nodes never alias the live row's. Every other
// row is shared unchecked — by design, since the replay writes only
// live jobs' rows — so a finished row edited outside the replay is not
// seen.
func TestRecordCopiesChangedRows(t *testing.T) {
	st := rowState(t, 3) // j0..j2 finished, j3 running
	// j2 was requeued: it waits in the queue.
	st.queue = []*qentry{{
		j:     &rjob{idx: 2, job: Job{ID: "j2", Tenant: "t"}, tenant: "t", weight: 1},
		ready: 95, remIters: 1, started: true, res: &st.results[2],
	}}
	var rec recorder
	noAlias := func(cp *checkpoint) {
		t.Helper()
		for i, row := range cp.results {
			if len(row.Nodes) > 0 && &row.Nodes[0] == &st.results[i].Nodes[0] {
				t.Fatalf("row %d's checkpoint Nodes alias the live row's", i)
			}
		}
	}
	shares := func(cp, base *checkpoint, copied ...int) {
		t.Helper()
		for i, row := range cp.results {
			want := !slices.Contains(copied, i)
			if shared := row == base.results[i]; shared != want {
				t.Fatalf("row %d: shared=%v, want shared=%v", i, shared, want)
			}
		}
	}
	rec.record(st)
	first := rec.checks[0]
	noAlias(first)

	st.results[2].Waited = math.Copysign(0, -1) // queued; was +0
	st.results[3].Finish = 130                  // running
	st.results[1].Finish = 999                  // finished, edited outside the replay
	rec.record(st)
	second := rec.checks[1]
	noAlias(second)
	shares(second, first, 2, 3)
	if !math.Signbit(second.results[2].Waited) || second.results[3].Finish != 130 {
		t.Fatalf("copied rows do not hold the live values: %+v %+v", *second.results[2], *second.results[3])
	}
	if second.results[1].Finish != 2 {
		t.Fatalf("the finished row was compared: checkpoint Finish %v, want the base's 2", second.results[1].Finish)
	}

	// j3 completes and j2 is declared unplaced: neither is live now, but
	// both were at the previous record, so their rows are still compared.
	st.runs, st.queue = nil, nil
	st.results[3].Finish = 140
	st.results[2].Unplaced = "gone"
	rec.record(st)
	third := rec.checks[2]
	noAlias(third)
	shares(third, second, 2, 3)
	if third.results[3].Finish != 140 || third.results[2].Unplaced != "gone" {
		t.Fatalf("rows of jobs that left the queue and runs were not copied: %+v %+v", *third.results[2], *third.results[3])
	}

	// Nothing is live at the previous record or at this one: every row is
	// shared, even one edited outside the replay.
	st.results[3].Finish = 150
	rec.record(st)
	shares(rec.checks[3], third)
}

// TestSameRowSeesEveryField changes each Placement field in turn: a
// field sameRow ignored would let a changed row be shared away.
func TestSameRowSeesEveryField(t *testing.T) {
	base := Placement{
		JobID: "a", Nodes: []int{1, 2}, Degrees: Degrees{Tensor: 1, Pipeline: 2, Data: 1},
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
// previous checkpoint's when the live table holds the same values, and a
// copy of the live table as soon as one entry differs; a table of the
// same length is not enough to share.
func TestRecordSharesEqualNodeTables(t *testing.T) {
	st := rowState(t, 2)
	var rec recorder
	rec.record(st)
	rec.record(st)
	first, second := rec.checks[0], rec.checks[1]
	if &second.free[0] != &first.free[0] || &second.failed[0] != &first.failed[0] || &second.factors[0] != &first.factors[0] {
		t.Fatal("unchanged node tables were copied, not shared")
	}
	st.failed[1], st.free[1] = true, false
	st.factors[0] = nodeFactors{rdma: 0.5, eth: 1, degraded: true}
	rec.record(st)
	third := rec.checks[2]
	if !third.failed[1] || third.free[1] || third.factors[0] != st.factors[0] {
		t.Fatalf("changed node tables were shared: free %v failed %v factors %v", third.free, third.failed, third.factors)
	}
	if &third.free[0] == &st.free[0] || &third.failed[0] == &st.failed[0] || &third.factors[0] == &st.factors[0] {
		t.Fatal("a checkpoint holds a live node table")
	}
	if first.failed[1] || !first.free[1] || first.factors[0] != pristineFactors {
		t.Fatalf("recording a change wrote an earlier checkpoint: free %v failed %v factors %v", first.free, first.failed, first.factors)
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
	hasJob := func(cp *checkpoint, id string) bool {
		for _, q := range cp.queue {
			if q.id == id {
				return true
			}
		}
		for _, r := range cp.runs {
			if r.q.id == id {
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
			newest := inc.rec.checks[len(inc.rec.checks)-1]
			for _, cp := range inc.rec.checks {
				if cp.clock <= at {
					newest = cp
				}
			}
			if newest.clock != at || hasJob(newest, id) != c.queued {
				t.Fatalf("the checkpoint to resume from is at %g holding %s=%v, want at %g holding it=%v",
					newest.clock, id, hasJob(newest, id), at, c.queued)
			}
			if c.queued && inc.rec.checks[len(inc.rec.checks)-1] != newest {
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
