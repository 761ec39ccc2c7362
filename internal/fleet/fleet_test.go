package fleet

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// pg1 is the smallest Table-2 model; every test job uses it unless it
// needs a distinct shape.
func pg1() config.ModelConfig { return config.ModelConfig{Group: 1} }

func hybridTrace(jobs ...Job) *Trace {
	return &Trace{
		Name:  "test",
		Fleet: Spec{Env: "Hybrid", Nodes: 4},
		Jobs:  jobs,
	}
}

// TestSingleJobMatchesSearchPlan pins the degenerate fleet to the
// paper's single-job planner: one job demanding every GPU must be
// planned bit-identically to a plain joint (t, p) search on the full
// topology — same degrees, same partition, same simulated report.
func TestSingleJobMatchesSearchPlan(t *testing.T) {
	eng := engine.New(engine.Config{})
	sched, err := Replay(eng, hybridTrace(Job{ID: "solo", GPUs: 32, Model: pg1()}))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlannerOn(eng, topology.HybridEnv(4), model.Group(1).Spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.SearchPlan()
	if err != nil {
		t.Fatal(err)
	}
	got := sched.Jobs[0]
	if got.Unplaced != "" || got.Start != 0 {
		t.Fatalf("solo job did not start immediately: %+v", got)
	}
	want := Placement{
		JobID:       "solo",
		Nodes:       []int{0, 1, 2, 3},
		Degrees:     Degrees{Tensor: plan.Degrees.T, Pipeline: plan.Degrees.P, Data: plan.Degrees.D},
		Finish:      plan.Report.IterSeconds,
		IterSeconds: plan.Report.IterSeconds,
		Throughput:  plan.Report.Throughput,
		TFLOPS:      plan.Report.TFLOPS,
		Partition:   plan.Partition.String(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet placement drifted from plain SearchPlan:\n got %+v\nwant %+v", got, want)
	}
	if sched.Makespan != plan.Report.IterSeconds {
		t.Fatalf("makespan %v, want one iteration %v", sched.Makespan, plan.Report.IterSeconds)
	}
}

func TestFIFOContention(t *testing.T) {
	// Two jobs each demanding the whole 4-node fleet: strict FIFO, the
	// second starts exactly when the first finishes.
	sched, err := Replay(nil, hybridTrace(
		Job{ID: "a", GPUs: 32, Model: pg1()},
		Job{ID: "b", GPUs: 32, Model: pg1()},
	))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sched.Jobs[0], sched.Jobs[1]
	if a.Start != 0 {
		t.Fatalf("job a starts at %v, want 0", a.Start)
	}
	if b.Start != a.Finish {
		t.Fatalf("job b starts at %v, want a's finish %v", b.Start, a.Finish)
	}
	if sched.Makespan != b.Finish {
		t.Fatalf("makespan %v, want %v", sched.Makespan, b.Finish)
	}
	if sched.Utilization <= 0 || sched.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", sched.Utilization)
	}
}

func TestDisjointSlicesRunConcurrently(t *testing.T) {
	// Two half-fleet jobs must run side by side on node-disjoint slices.
	sched, err := Replay(nil, hybridTrace(
		Job{ID: "a", GPUs: 16, Model: pg1()},
		Job{ID: "b", GPUs: 16, Model: pg1()},
	))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sched.Jobs[0], sched.Jobs[1]
	if a.Start != 0 || b.Start != 0 {
		t.Fatalf("concurrent jobs start at %v / %v, want 0 / 0", a.Start, b.Start)
	}
	used := map[int]string{}
	for _, p := range sched.Jobs {
		for _, n := range p.Nodes {
			if owner, taken := used[n]; taken {
				t.Fatalf("node %d placed for both %s and %s", n, owner, p.JobID)
			}
			used[n] = p.JobID
		}
	}
	// NIC affinity: on the hybrid fleet (2 IB + 2 RoCE nodes), each
	// half-fleet job should land inside one cluster, never straddling
	// the Ethernet-only boundary.
	topo := topology.HybridEnv(4)
	for _, p := range sched.Jobs {
		c := topo.Node(p.Nodes[0]).Cluster
		for _, n := range p.Nodes[1:] {
			if topo.Node(n).Cluster != c {
				t.Fatalf("job %s straddles clusters: nodes %v", p.JobID, p.Nodes)
			}
		}
	}
}

func TestBackfillDoesNotDelayHead(t *testing.T) {
	// a holds half the fleet for 3 iterations. b (whole fleet) blocks
	// behind it. c (half fleet, 1 iteration) fits the idle half and
	// finishes before a, so EASY backfill must start it immediately —
	// and b must still start the moment a (the later finisher) is done.
	sched, err := Replay(nil, hybridTrace(
		Job{ID: "a", GPUs: 16, Iterations: 3, Model: pg1()},
		Job{ID: "b", Submit: 0.001, GPUs: 32, Model: pg1()},
		Job{ID: "c", Submit: 0.002, GPUs: 16, Iterations: 1, Model: pg1()},
	))
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := sched.Jobs[0], sched.Jobs[1], sched.Jobs[2]
	if !c.Backfilled {
		t.Fatalf("job c was not backfilled: %+v", c)
	}
	if c.Start != 0.002 {
		t.Fatalf("backfilled c starts at %v, want its submit instant", c.Start)
	}
	if c.Finish > a.Finish {
		t.Fatalf("backfill violated the reservation: c finishes %v after a's %v", c.Finish, a.Finish)
	}
	if b.Start != a.Finish {
		t.Fatalf("head b starts at %v, want %v (a's finish, undelayed by c)", b.Start, a.Finish)
	}
	if b.Backfilled {
		t.Fatal("queue head marked backfilled")
	}
}

// TestDeterministicAcrossEngines replays one contended trace on engines
// with different concurrency and oracle settings: the schedule is a pure
// function of the trace, so every replay must be bit-identical (the
// incremental rebalancer is pinned to its full-recompute oracle
// elsewhere; here both arms must agree through the whole fleet stack).
func TestDeterministicAcrossEngines(t *testing.T) {
	tr := hybridTrace(
		Job{ID: "a", GPUs: 16, Iterations: 2, Model: pg1()},
		Job{ID: "b", Submit: 0.5, GPUs: 32, Model: config.ModelConfig{Group: 2}},
		Job{ID: "c", Submit: 0.7, GPUs: 8, Iterations: 3, Model: pg1()},
		Job{ID: "d", Submit: 0.7, GPUs: 8, Model: pg1()},
	)
	var schedules []*Schedule
	for _, eng := range []*engine.Engine{
		engine.New(engine.Config{Concurrency: 1}),
		engine.New(engine.Config{}),
		engine.New(engine.Config{Concurrency: 3, FullRecompute: true}),
	} {
		sched, err := Replay(eng, tr)
		if err != nil {
			t.Fatal(err)
		}
		schedules = append(schedules, sched)
	}
	want, err := json.Marshal(schedules[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, sched := range schedules[1:] {
		got, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("engine %d produced a different schedule:\n%s\nvs\n%s", i+1, got, want)
		}
	}
}

func TestFailNodeRequeuesOnlyAffectedJobs(t *testing.T) {
	// a and b run on disjoint half-fleet slices; node 0 fails mid-run.
	// Only the job holding node 0 may be evicted; the other must finish
	// exactly as in the pristine replay.
	jobs := []Job{
		{ID: "a", GPUs: 16, Iterations: 4, Model: pg1()},
		{ID: "b", GPUs: 16, Iterations: 4, Model: pg1()},
	}
	pristine, err := Replay(nil, hybridTrace(jobs...))
	if err != nil {
		t.Fatal(err)
	}
	var victim, bystander int
	for i, p := range pristine.Jobs {
		onZero := false
		for _, n := range p.Nodes {
			if n == 0 {
				onZero = true
			}
		}
		if onZero {
			victim = i
		} else {
			bystander = i
		}
	}
	if victim == bystander {
		t.Fatalf("test needs disjoint placements: %+v", pristine.Jobs)
	}
	mid := pristine.Jobs[victim].IterSeconds * 1.5 // inside iteration 2 of 4
	tr := hybridTrace(jobs...)
	tr.Scenario = &scenario.Scenario{
		Name:   "fail0",
		Events: []scenario.Event{{Kind: scenario.FailNode, At: mid, Node: 0}},
	}
	faulted, err := Replay(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	v, by := faulted.Jobs[victim], faulted.Jobs[bystander]
	if v.Evictions != 1 {
		t.Fatalf("victim evicted %d times, want 1: %+v", v.Evictions, v)
	}
	if by.Evictions != 0 || by.Replans != 0 {
		t.Fatalf("bystander was disturbed: %+v", by)
	}
	if !reflect.DeepEqual(by, pristine.Jobs[bystander]) {
		t.Fatalf("bystander drifted from the pristine replay:\n got %+v\nwant %+v", by, pristine.Jobs[bystander])
	}
	if v.Finish <= pristine.Jobs[victim].Finish {
		t.Fatalf("victim finish %v did not pay for the eviction (pristine %v)", v.Finish, pristine.Jobs[victim].Finish)
	}
	for _, n := range v.Nodes {
		if n == 0 {
			t.Fatalf("victim replaced onto the failed node: %v", v.Nodes)
		}
	}
	if v.Recovery <= 0 {
		t.Fatalf("eviction did not record a replanning recovery factor: %+v", v)
	}
	if faulted.ScenarioEvents != 1 {
		t.Fatalf("applied %d events, want 1", faulted.ScenarioEvents)
	}
}

func TestDegradeReplansInPlace(t *testing.T) {
	jobs := []Job{{ID: "a", GPUs: 32, Iterations: 4, Model: pg1()}}
	pristine, err := Replay(nil, hybridTrace(jobs...))
	if err != nil {
		t.Fatal(err)
	}
	mid := pristine.Jobs[0].IterSeconds * 1.5
	tr := hybridTrace(jobs...)
	tr.Scenario = &scenario.Scenario{
		Name: "degrade0",
		Events: []scenario.Event{
			{Kind: scenario.DegradeNIC, At: mid, Node: 0, Class: scenario.ClassRDMA, Factor: 0.25},
		},
	}
	degraded, err := Replay(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	p := degraded.Jobs[0]
	if p.Replans != 1 {
		t.Fatalf("degrade caused %d replans, want 1: %+v", p.Replans, p)
	}
	if p.Evictions != 0 {
		t.Fatalf("degrade must not evict: %+v", p)
	}
	if !reflect.DeepEqual(p.Nodes, pristine.Jobs[0].Nodes) {
		t.Fatalf("in-place replan moved the job: %v vs %v", p.Nodes, pristine.Jobs[0].Nodes)
	}
	if p.Finish <= pristine.Jobs[0].Finish {
		t.Fatalf("degraded finish %v not later than pristine %v", p.Finish, pristine.Jobs[0].Finish)
	}
}

// TestRestoreOfUntouchedNodeIsNoOp: restoring a node that never failed
// or degraded must leave the schedule bit-identical to the pristine
// replay — replanning anyway would discard partial-iteration progress
// and inflate Replans for a no-op event.
func TestRestoreOfUntouchedNodeIsNoOp(t *testing.T) {
	jobs := []Job{{ID: "a", GPUs: 32, Iterations: 3, Model: pg1()}}
	pristine, err := Replay(nil, hybridTrace(jobs...))
	if err != nil {
		t.Fatal(err)
	}
	tr := hybridTrace(jobs...)
	tr.Scenario = &scenario.Scenario{
		Name: "noop-restore",
		Events: []scenario.Event{
			{Kind: scenario.RestoreNode, At: pristine.Jobs[0].IterSeconds * 1.5, Node: 0},
		},
	}
	restored, err := Replay(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Jobs[0].Replans != 0 {
		t.Fatalf("no-op restore caused %d replans", restored.Jobs[0].Replans)
	}
	if !reflect.DeepEqual(restored.Jobs[0], pristine.Jobs[0]) {
		t.Fatalf("no-op restore changed the schedule:\n got %+v\nwant %+v", restored.Jobs[0], pristine.Jobs[0])
	}
}

func TestUnplaceableJobIsReported(t *testing.T) {
	// Node 0 of a 1-cluster fleet fails before the job arrives; a job
	// demanding the full fleet can never run, a half-fleet job can.
	tr := &Trace{
		Fleet: Spec{Env: "InfiniBand", Nodes: 2},
		Scenario: &scenario.Scenario{Events: []scenario.Event{
			{Kind: scenario.FailNode, At: 0, Node: 0},
		}},
		Jobs: []Job{
			{ID: "big", GPUs: 16, Model: pg1()},
			{ID: "small", Submit: 0.1, GPUs: 8, Model: pg1()},
		},
	}
	sched, err := Replay(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Jobs[0].Unplaced == "" {
		t.Fatalf("full-fleet job was placed on a 1-node fleet: %+v", sched.Jobs[0])
	}
	if sched.Jobs[1].Unplaced != "" || len(sched.Jobs[1].Nodes) != 1 {
		t.Fatalf("surviving-capacity job did not run: %+v", sched.Jobs[1])
	}
	if sched.Jobs[1].Nodes[0] != 1 {
		t.Fatalf("job placed on the failed node: %+v", sched.Jobs[1])
	}
}

func TestDeadlineReporting(t *testing.T) {
	sched, err := Replay(nil, hybridTrace(
		Job{ID: "a", GPUs: 32, Iterations: 2, Model: pg1(), Deadline: 1e-6},
		Job{ID: "b", GPUs: 32, Iterations: 1, Model: pg1(), Deadline: 1e9},
	))
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Jobs[0].MissedDeadline {
		t.Fatalf("microsecond deadline reported met: %+v", sched.Jobs[0])
	}
	if sched.Jobs[1].MissedDeadline {
		t.Fatalf("generous deadline reported missed: %+v", sched.Jobs[1])
	}
}

func TestTraceValidation(t *testing.T) {
	base := func() *Trace {
		return hybridTrace(Job{ID: "a", GPUs: 16, Model: pg1()})
	}
	for name, mutate := range map[string]func(*Trace){
		"no jobs":          func(tr *Trace) { tr.Jobs = nil },
		"empty id":         func(tr *Trace) { tr.Jobs[0].ID = "" },
		"duplicate id":     func(tr *Trace) { tr.Jobs = append(tr.Jobs, tr.Jobs[0]) },
		"zero gpus":        func(tr *Trace) { tr.Jobs[0].GPUs = 0 },
		"ragged gpus":      func(tr *Trace) { tr.Jobs[0].GPUs = 12 },
		"oversized demand": func(tr *Trace) { tr.Jobs[0].GPUs = 64 },
		"negative submit":  func(tr *Trace) { tr.Jobs[0].Submit = -1 },
		"bad deadline":     func(tr *Trace) { tr.Jobs[0].Deadline = -2 },
		"bad framework":    func(tr *Trace) { tr.Jobs[0].Framework = "PyTorch-DDP" },
		"bad model group":  func(tr *Trace) { tr.Jobs[0].Model.Group = 9 },
		"unsupported event": func(tr *Trace) {
			tr.Scenario = &scenario.Scenario{Events: []scenario.Event{
				{Kind: scenario.BackgroundTraffic, At: 0, Src: 0, Dst: 1, Gbps: 10},
			}}
		},
		"event outside fleet": func(tr *Trace) {
			tr.Scenario = &scenario.Scenario{Events: []scenario.Event{
				{Kind: scenario.FailNode, At: 0, Node: 99},
			}}
		},
	} {
		tr := base()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceLoadRejectsGarbage(t *testing.T) {
	for name, body := range map[string]string{
		"unknown field": `{"fleet":{"env":"Hybrid","nodes":4},"jobs":[],"extra":1}`,
		"trailing data": `{"fleet":{"env":"Hybrid","nodes":4},"jobs":[]} {}`,
		"stray brace":   `{"fleet":{"env":"Hybrid","nodes":4},"jobs":[]}}`,
		"stray bracket": `{"fleet":{"env":"Hybrid","nodes":4},"jobs":[]}]`,
		"not json":      `fleet!`,
	} {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	tr, err := Load(strings.NewReader(`{"name":"ok","fleet":{"env":"Hybrid","nodes":4},"jobs":[{"id":"a","gpus":16,"model":{"group":1}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "ok" || len(tr.Jobs) != 1 {
		t.Fatalf("loaded trace drifted: %+v", tr)
	}
}

func TestManagerDeterministicAcrossSubmissionOrder(t *testing.T) {
	topo := topology.HybridEnv(4)
	jobs := []Job{
		{ID: "a", GPUs: 16, Iterations: 2, Model: pg1()},
		{ID: "b", GPUs: 32, Model: config.ModelConfig{Group: 2}},
		{ID: "c", GPUs: 8, Iterations: 3, Model: pg1()},
		{ID: "d", GPUs: 8, Model: pg1()},
	}
	forward, err := NewManager(nil, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := forward.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	backward, err := NewManager(nil, topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		if err := backward.Submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := forward.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := backward.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := json.Marshal(fs)
	bj, _ := json.Marshal(bs)
	if string(fj) != string(bj) {
		t.Fatalf("submission order changed the schedule:\n%s\nvs\n%s", fj, bj)
	}
	// Cancel + resubmit leaves the schedule of the remaining set.
	if !forward.Cancel("b") {
		t.Fatal("cancel of a live job failed")
	}
	if forward.Cancel("b") {
		t.Fatal("double cancel succeeded")
	}
	if _, ok, _ := forward.Job("a"); !ok {
		t.Fatal("live job not found after cancel of another")
	}
	if _, ok, _ := forward.Job("b"); ok {
		t.Fatal("cancelled job still scheduled")
	}
	if err := forward.Submit(jobs[0]); err == nil {
		t.Fatal("duplicate submit accepted")
	}
}
