package fleet

import (
	"fmt"
	"math"
	"reflect"
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

// TestRecordCopiesChangedRows: a row that differs from the base in any
// field is copied, a sign-of-zero change included, and its Nodes never
// alias the live row's.
func TestRecordCopiesChangedRows(t *testing.T) {
	st := rowState(t, 3)
	var rec recorder
	rec.record(st)
	first := rec.checks[0]
	for i, row := range first.results {
		if len(row.Nodes) > 0 && &row.Nodes[0] == &st.results[i].Nodes[0] {
			t.Fatalf("row %d's checkpoint Nodes alias the live row's", i)
		}
	}
	st.results[1].Waited = math.Copysign(0, -1) // was +0
	st.results[3].Finish = 130
	rec.record(st)
	second := rec.checks[1]
	for i, row := range second.results {
		changed := i == 1 || i == 3
		if shared := row == first.results[i]; shared == changed {
			t.Fatalf("row %d: shared=%v, want shared=%v", i, shared, !changed)
		}
	}
	if !math.Signbit(second.results[1].Waited) || second.results[3].Finish != 130 {
		t.Fatalf("copied rows do not hold the live values: %+v %+v", *second.results[1], *second.results[3])
	}
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
