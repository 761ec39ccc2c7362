package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"holmes/internal/config"
	"holmes/internal/engine"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// A poll derives only what its mutation changed: the replay's node and
// tenant state are tables a checkpoint logs whole or shares, candidate
// slice fingerprints are memoized on the plan cache, and a manager
// resolves each job once, at Submit. The tests here pin each saving and the keys
// and bounds that keep it invisible in the schedule.

// sliceEntries counts the engine's memoized slice fingerprints.
func sliceEntries(eng *engine.Engine) int {
	n := 0
	for _, pe := range eng.PlanEntries() {
		if _, ok := pe.Key.(sliceKey); ok {
			n++
		}
	}
	return n
}

// freshReplay replays the manager's live trace on a new engine: the
// reference every schedule of a manager on a shared engine must equal.
func freshReplay(m *Manager) (*Schedule, error) {
	s, err := NewScheduler(engine.New(engine.Config{}), m.Topology())
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	tr := m.trace()
	m.mu.Unlock()
	return s.Replay(tr)
}

// TestRecordCostIgnoresFaultsAndTenants pins the node and tenant tables
// under fair, the policy that keeps a tenant table: re-recording an
// instant allocates nothing, with no impaired node as with every node
// failed or degraded, and with one tenant as with nine, because each
// table is shared or logged whole. The logged tables are values: writing
// the live tables afterwards leaves the checkpoint as it was.
func TestRecordCostIgnoresFaultsAndTenants(t *testing.T) {
	setup := func(impaired, tenants int) *state {
		st := rowState(t, 8)
		st.pol = fairPolicy{}
		for n := 0; n < impaired; n++ {
			if n%2 == 0 {
				st.failed[n], st.free[n] = true, false
			}
			st.factors[n] = nodeFactors{rdma: 0.5, eth: 0.25, degraded: true}
		}
		st.tenantBusy = nil
		for k := 0; k < tenants; k++ {
			st.tenantBusy = append(st.tenantBusy, tenantUse{tenant: fmt.Sprintf("t%d", k), busy: float64(k + 1)})
		}
		return st
	}
	for _, c := range []struct{ impaired, tenants int }{{0, 1}, {4, 1}, {0, 9}, {4, 9}} {
		st := setup(c.impaired, c.tenants)
		var rec recorder
		rec.record(st)
		if got := testing.AllocsPerRun(20, func() {
			rec.popLast()
			rec.record(st)
		}); got != 0 {
			t.Errorf("record allocates %v with %d impaired nodes and %d tenants, want 0", got, c.impaired, c.tenants)
		}
	}

	st := setup(4, 9)
	var rec recorder
	rec.record(st)
	st.failed[0], st.factors[1].rdma, st.tenantBusy[2].busy = false, 1, -1
	cp := restoreCheck(t, &rec, 0, st)
	if !cp.failed[0] || cp.factors[1].rdma != 0.5 || cp.tenantBusy[2].busy != 3 {
		t.Fatalf("writes to the live tables reached the checkpoint: failed %v factors %v tenants %v",
			cp.failed, cp.factors, cp.tenantBusy)
	}
}

// TestRestoreRejectsShortNodeTables: a checkpoint whose node tables do
// not cover the fleet cannot seed a replay, so restore refuses it and
// resume falls back to replaying from scratch; so does one holding a
// job that is not at its trace index in the live set.
func TestRestoreRejectsShortNodeTables(t *testing.T) {
	st := rowState(t, 2)
	var rec recorder
	rec.record(st)
	jobs := jobsOf(st)
	if _, ok := rec.restore(st.sch, st.pol, jobs); !ok {
		t.Fatal("a whole checkpoint was refused")
	}
	wide, err := (Spec{Env: "Hybrid", Nodes: 6}).Topology()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(st.sch.eng, wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.restore(s, st.pol, jobs); ok {
		t.Error("restore accepted a checkpoint whose node tables miss two of the fleet's nodes")
	}
	moved := append([]*rjob{{idx: 0, job: Job{ID: "new"}}}, jobs...)
	for i, j := range moved {
		j.idx = i
	}
	if _, ok := rec.restore(st.sch, st.pol, moved); ok {
		t.Error("restore accepted a checkpoint whose running job moved to another trace index")
	}
}

// TestRecordStopsAtMaxCheckpoints records up to the bound and once past
// it: the bound-th checkpoint is stored, the one after it is not and
// leaves the logs where the last stored checkpoint ends, and once
// invalidateFrom drops checkpoints recording resumes. Then a manager's
// recorder reaches the bound part-way through a resumed replay, and
// every later poll still equals the replay of the live trace.
func TestRecordStopsAtMaxCheckpoints(t *testing.T) {
	st := rowState(t, 2)
	var rec recorder
	for i := 0; i < maxCheckpoints; i++ {
		st.clock = float64(i)
		rec.record(st)
	}
	if len(rec.checks) != maxCheckpoints {
		t.Fatalf("%d checkpoints after %d records, want %d", len(rec.checks), maxCheckpoints, maxCheckpoints)
	}
	last := rec.checks[maxCheckpoints-1]
	if last.clock != maxCheckpoints-1 {
		t.Fatalf("the last stored checkpoint is at %v, want %v", last.clock, maxCheckpoints-1)
	}
	if len(rec.queue) != last.queue.to || len(rec.runs) != last.runs.to || len(rec.nodes) != last.nodes {
		t.Fatal("the logs do not end at the last stored checkpoint")
	}

	st.clock = maxCheckpoints
	st.results[2].Finish = 999 // the running row a skipped record would have logged
	rec.record(st)
	if len(rec.checks) != maxCheckpoints || rec.checks[maxCheckpoints-1] != last {
		t.Fatalf("a record past the bound was stored: %d checkpoints, newest at %v",
			len(rec.checks), rec.checks[len(rec.checks)-1].clock)
	}
	if len(rec.queue) != last.queue.to || len(rec.runs) != last.runs.to || len(rec.nodes) != last.nodes {
		t.Fatal("a record past the bound wrote the logs")
	}

	rec.invalidateFrom(maxCheckpoints - 10)
	if len(rec.checks) != maxCheckpoints-10 {
		t.Fatalf("%d checkpoints after invalidating the last 10, want %d", len(rec.checks), maxCheckpoints-10)
	}
	rec.record(st)
	if len(rec.checks) != maxCheckpoints-9 || rec.checks[len(rec.checks)-1].clock != maxCheckpoints {
		t.Fatalf("recording did not resume under the bound: %d checkpoints", len(rec.checks))
	}
	if got := restoreCheck(t, &rec, len(rec.checks)-1, st); got.results[2].Finish != 999 {
		t.Fatalf("the resumed record holds a stale running row: %+v", got.results[2])
	}
	if got := restoreCheck(t, &rec, len(rec.checks)-2, st); got.results[2].Finish != 120 {
		t.Fatalf("the resumed record wrote an earlier checkpoint's row: %+v", got.results[2])
	}

	topo := hybridTopo(t)
	m, err := NewManager(engine.New(engine.Config{}), topo)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewScheduler(engine.New(engine.Config{}), topo)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	step := func(desc string, f func() error) {
		t.Helper()
		log = append(log, desc)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		compareWithReplay(t, m, ref, log)
	}
	for _, j := range []Job{
		{ID: "a", GPUs: 16, Iterations: 3, Model: pg1()},
		{ID: "b", Submit: 1, GPUs: 16, Iterations: 5, Model: pg1()},
		{ID: "c", Submit: 2, GPUs: 8, Iterations: 2, Model: pg1()},
		{ID: "d", Submit: 3, GPUs: 32, Iterations: 1, Model: pg1()},
	} {
		step("submit "+j.ID, func() error { return m.Submit(j) })
	}
	step("fail node 1 at 4", func() error {
		return m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: 4, Node: 1})
	})
	// Fill the history to two short of the bound with the first
	// checkpoint, a valid state to resume from: the next resume stores
	// its first two instants and then reaches the bound.
	m.rec.truncate(1)
	first := m.rec.checks[0]
	for range maxCheckpoints - 3 {
		m.rec.checks = append(m.rec.checks, first)
	}
	step("submit e at 1.5", func() error {
		return m.Submit(Job{ID: "e", Submit: 1.5, GPUs: 8, Iterations: 2, Model: pg1()})
	})
	if len(m.rec.checks) != maxCheckpoints {
		t.Fatalf("%d checkpoints after the padded resume, want the bound %d", len(m.rec.checks), maxCheckpoints)
	}
	stored := m.rec.checks[maxCheckpoints-1].clock
	if stored >= 4 {
		t.Fatalf("the bound was reached at %g, not part-way through the trace", stored)
	}
	step("restore node 1 at 30", func() error {
		return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 30, Node: 1})
	})
	step("submit f at 40", func() error {
		return m.Submit(Job{ID: "f", Submit: 40, GPUs: 16, Iterations: 2, Model: pg1()})
	})
	step("cancel c", func() error {
		if !m.Cancel("c") {
			return fmt.Errorf("c was not live")
		}
		return nil
	})
}

// TestSliceMemoKeysTheFleet runs the same jobs and events on two fleets
// that share node indices but not hardware — nodes 2 and 3 are RoCE in
// the Hybrid fleet and InfiniBand in the all-InfiniBand one — through
// two managers on one engine. Each schedule must equal a fresh engine's
// replay of its own trace: a memo keyed without the fleet would hand the
// second fleet the first fleet's carve of nodes 2 and 3.
func TestSliceMemoKeysTheFleet(t *testing.T) {
	ib, err := (Spec{Env: "InfiniBand", Nodes: 4}).Topology()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{})
	var mans []*Manager
	for _, topo := range []*topology.Topology{hybridTopo(t), ib} {
		m, err := NewManager(eng, topo)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, m)
	}
	muts := []mutator{
		{"submit a", func(m *Manager) error { return m.Submit(Job{ID: "a", GPUs: 16, Iterations: 40, Model: pg1()}) }},
		{"submit b", func(m *Manager) error { return m.Submit(Job{ID: "b", GPUs: 16, Iterations: 60, Model: pg1()}) }},
		{"degrade node 3 at 5", func(m *Manager) error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.DegradeNIC, At: 5, Node: 3, Class: scenario.ClassRDMA, Factor: 0.25})
		}},
		{"restore node 3 at 15", func(m *Manager) error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 15, Node: 3})
		}},
	}
	var log []string
	for _, mut := range muts {
		log = append(log, mut.desc)
		var throughputs []float64
		for i, m := range mans {
			if err := mut.apply(m); err != nil {
				t.Fatalf("%s: %v", mut.desc, err)
			}
			got, err := m.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshReplay(m)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
				t.Fatalf("fleet %d diverged from its fresh-engine replay after:\n%s\n got %s\nwant %s", i, joinLog(log), g, w)
			}
			throughputs = append(throughputs, got.Jobs[len(got.Jobs)-1].Throughput)
		}
		if len(log) == 2 && throughputs[0] == throughputs[1] {
			t.Fatalf("b runs at %v on both fleets: the test cannot tell the fleets' nodes 2 and 3 apart", throughputs[0])
		}
	}
	if sliceEntries(eng) == 0 {
		t.Fatal("no slice fingerprint was memoized")
	}
}

// TestSliceMemoKeysTheFactors drives a degrade, a restore and a second,
// different degrade of one node under a whole-fleet job, against a
// FullRecompute oracle, on an engine that memoized the pristine slice
// first: a memo keyed without the factors would replan the degraded
// slice as the pristine one. The oracle's engine stores no slice entry.
func TestSliceMemoKeysTheFactors(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	inc, err := NewManager(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewManager(oracleEng, topo)
	if err != nil {
		t.Fatal(err)
	}
	degrade := func(at float64, class scenario.Class, factor float64) func(m *Manager) error {
		return func(m *Manager) error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.DegradeNIC, At: at, Node: 1, Class: class, Factor: factor})
		}
	}
	muts := []mutator{
		{"submit whole", func(m *Manager) error { return m.Submit(Job{ID: "whole", GPUs: 32, Iterations: 100, Model: pg1()}) }},
		{"degrade node 1 rdma 0.25 at 5", degrade(5, scenario.ClassRDMA, 0.25)},
		{"restore node 1 at 20", func(m *Manager) error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 20, Node: 1})
		}},
		{"degrade node 1 eth 0.5 at 30", degrade(30, scenario.ClassEther, 0.5)},
		{"degrade node 1 rdma 0.25 at 40", degrade(40, scenario.ClassRDMA, 0.25)},
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
	}
	sched, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if p := sched.Jobs[0]; p.Replans != 4 {
		t.Fatalf("%d replans, want 4 (three degrades and a restore): %+v", p.Replans, p)
	}
	if sliceEntries(eng) < 3 {
		t.Fatalf("%d slice entries after pristine, degraded and restored carves, want at least 3", sliceEntries(eng))
	}
	if n := sliceEntries(oracleEng); n != 0 {
		t.Fatalf("the FullRecompute engine memoized %d slice fingerprint(s), want none", n)
	}
}

// TestRestoreReplansANodeDegradedByOne: a node degraded by factor 1 has
// the pristine factors but was degraded, so restoring it replans its
// jobs, as restoring a node no event touched does not.
func TestRestoreReplansANodeDegradedByOne(t *testing.T) {
	for _, c := range []struct {
		events  []scenario.Event
		replans int
	}{
		{[]scenario.Event{{Kind: scenario.RestoreNode, At: 20, Node: 0}}, 0},
		{[]scenario.Event{
			{Kind: scenario.DegradeNIC, At: 10, Node: 0, Class: scenario.ClassRDMA, Factor: 1},
			{Kind: scenario.RestoreNode, At: 20, Node: 0},
		}, 2},
	} {
		tr := hybridTrace(Job{ID: "a", GPUs: 32, Iterations: 100, Model: pg1()})
		tr.Scenario = &scenario.Scenario{Name: "by-one", Events: c.events}
		got, err := Replay(engine.New(engine.Config{}), tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Replay(engine.New(engine.Config{FullRecompute: true}), tr)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
			t.Fatalf("%d events: diverged from the oracle:\n got %s\nwant %s", len(c.events), g, w)
		}
		if r := got.Jobs[0].Replans; r != c.replans {
			t.Errorf("%d events: %d replans, want %d", len(c.events), r, c.replans)
		}
	}
}

// TestResubmitResolvesAnew cancels a job and resubmits its ID with a
// different demand, model and tenant under the fair policy: the manager
// must replay the new job, not the resolution it kept for the old one.
// The reference is a fresh replay of the live set as submitted, built
// here rather than read back from the manager.
func TestResubmitResolvesAnew(t *testing.T) {
	topo := hybridTopo(t)
	m, err := NewManager(engine.New(engine.Config{}), topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPolicy("fair"); err != nil {
		t.Fatal(err)
	}
	ref, err := NewScheduler(engine.New(engine.Config{}), topo)
	if err != nil {
		t.Fatal(err)
	}
	other := Job{ID: "other", GPUs: 16, Iterations: 50, Model: pg1(), Tenant: "b"}
	x := Job{ID: "x", Submit: 1, GPUs: 8, Iterations: 10, Model: pg1(), Tenant: "a"}
	x2 := Job{ID: "x", Submit: 1, GPUs: 16, Iterations: 10, Model: config.ModelConfig{Group: 2}, Tenant: "b"}
	steps := []struct {
		desc  string
		apply func() error
		live  []Job
	}{
		{"submit other", func() error { return m.Submit(other) }, []Job{other}},
		{"submit x", func() error { return m.Submit(x) }, []Job{other, x}},
		{"cancel x", func() error {
			if !m.Cancel("x") {
				return fmt.Errorf("x was not live")
			}
			return nil
		}, []Job{other}},
		{"resubmit x", func() error { return m.Submit(x2) }, []Job{other, x2}},
	}
	var log []string
	for _, step := range steps {
		log = append(log, step.desc)
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.desc, err)
		}
		got, err := m.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Replay(&Trace{Jobs: step.live, Policy: "fair"})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
			t.Fatalf("diverged from the replay of the live trace after:\n%s\n got %s\nwant %s", joinLog(log), g, w)
		}
	}
	p, ok, err := m.Job("x")
	if err != nil || !ok {
		t.Fatalf("x: %v %v", ok, err)
	}
	if len(p.Nodes) != 2 {
		t.Fatalf("the resubmitted x ran on %v, want 2 nodes for its 16 GPUs", p.Nodes)
	}
}

// TestConcurrentManagersShareSliceMemo polls two managers on one engine
// from separate goroutines through traces whose backfill scans score
// several queued jobs at once, so slice fingerprints are looked up and
// stored from the backfill fan-out and from both managers concurrently.
// Every schedule must equal the oracle replay of its trace. Run under
// -race.
func TestConcurrentManagersShareSliceMemo(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{Concurrency: 2})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = churnWithBackfill(eng, oracleEng, topo, g)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("manager %d: %v", g, err)
		}
	}
	if sliceEntries(eng) == 0 {
		t.Fatal("no slice fingerprint was memoized")
	}
}

func churnWithBackfill(eng, oracleEng *engine.Engine, topo *topology.Topology, g int) error {
	m, err := NewManager(eng, topo)
	if err != nil {
		return err
	}
	ref, err := NewScheduler(oracleEng, topo)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return m.Submit(Job{ID: "long", GPUs: 16, Iterations: 200, Model: pg1()}) },
		func() error { return m.Submit(Job{ID: "head", Submit: 1, GPUs: 32, Iterations: 5, Model: pg1()}) },
		func() error { return m.Submit(Job{ID: "c", Submit: 1, GPUs: 8, Iterations: 2, Model: pg1()}) },
		func() error { return m.Submit(Job{ID: "d", Submit: 1, GPUs: 8, Iterations: 3, Model: pg1()}) },
		func() error {
			return m.ApplyEvent(scenario.Event{Kind: scenario.DegradeNIC, At: 2, Node: 2 + g, Class: scenario.ClassRDMA, Factor: 0.5})
		},
		func() error { return m.Submit(Job{ID: "e", Submit: 3, GPUs: 8, Iterations: 2, Model: pg1()}) },
		func() error { return m.ApplyEvent(scenario.Event{Kind: scenario.RestoreNode, At: 4, Node: 2 + g}) },
		func() error { m.Cancel("c"); return nil },
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
