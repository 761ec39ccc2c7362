package fleet

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/scenario"
)

// Policy coverage: one committed golden per registered policy on the
// shared policy8 trace (priorities, deadlines, tenants, and weights all
// in play), behavioural assertions that each policy actually does what
// its name claims, a property test that no policy can silently drop a
// job the fleet cannot place, and per-policy incremental-vs-oracle
// differentials.

func loadPolicyTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := LoadFile(filepath.Join("testdata", "policy8.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func placementOf(t *testing.T, sched *Schedule, id string) Placement {
	t.Helper()
	for _, p := range sched.Jobs {
		if p.JobID == id {
			return p
		}
	}
	t.Fatalf("schedule has no job %q", id)
	return Placement{}
}

// TestPolicyGoldens pins one schedule per policy on the policy8 trace,
// plus the behavioural signature of each policy:
//
//   - priority: the tier-5 whole-fleet job preempts both running tier-0
//     jobs and starts the instant it arrives;
//   - edf: the deadline job runs no later than its deadline-free peer
//     submitted at the same instant (FIFO would tie-break by trace
//     index, which puts the deadline job first here too — the golden
//     pins the full divergent schedule);
//   - fifo / fair: never preempt.
func TestPolicyGoldens(t *testing.T) {
	base := loadPolicyTrace(t)
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := *base
			tr.Policy = name
			sched, err := Replay(nil, &tr)
			if err != nil {
				t.Fatal(err)
			}
			if sched.Policy != name {
				t.Fatalf("schedule policy %q, want %q", sched.Policy, name)
			}
			preempted := 0
			for _, p := range sched.Jobs {
				preempted += p.Preemptions
			}
			switch name {
			case "priority":
				urgent := placementOf(t, sched, "urgent")
				if urgent.Start != 5 {
					t.Errorf("urgent started at %g under priority, want 5 (preemptive start)", urgent.Start)
				}
				if a, b := placementOf(t, sched, "base-a"), placementOf(t, sched, "base-b"); a.Preemptions == 0 || b.Preemptions == 0 {
					t.Errorf("base jobs have preemptions %d/%d, want both > 0", a.Preemptions, b.Preemptions)
				}
				if preempted == 0 {
					t.Error("priority run recorded no preemptions; the preemption arm is dead")
				}
			case "edf":
				rush, slack := placementOf(t, sched, "rush"), placementOf(t, sched, "slack")
				if rush.Start > slack.Start {
					t.Errorf("edf ran deadline job rush at %g after deadline-free slack at %g", rush.Start, slack.Start)
				}
				fallthrough
			default:
				if preempted != 0 {
					t.Errorf("%s run recorded %d preemptions, want 0 (non-preemptive policy)", name, preempted)
				}
			}
			checkGolden(t, "policy8_"+name, sched)
		})
	}
}

// TestPolicyGoldensDiverge guards against a policy silently degrading
// to FIFO: on the policy8 trace every non-FIFO policy must produce a
// schedule that differs from the FIFO one (the trace was built so each
// policy's signal — tiers, deadlines, shares — is decisive somewhere).
func TestPolicyGoldensDiverge(t *testing.T) {
	base := loadPolicyTrace(t)
	blobs := make(map[string]string)
	for _, name := range PolicyNames() {
		tr := *base
		tr.Policy = name
		sched, err := Replay(nil, &tr)
		if err != nil {
			t.Fatal(err)
		}
		sched.Policy = "" // compare decisions, not the label
		blobs[name] = marshalSched(t, sched)
	}
	for _, name := range PolicyNames() {
		if name == "fifo" {
			continue
		}
		if blobs[name] == blobs["fifo"] {
			t.Errorf("policy %q produced the exact FIFO schedule on policy8; its signal is dead", name)
		}
	}
}

// TestPolicyNeverDropsUnplaceableJob is the cross-policy liveness
// property: a job the surviving fleet can never hold must surface as
// Unplaced with a reason — not vanish, not wedge the queue — and every
// other job must still run. The whale also exercises the preemption
// guard: under "priority" it outranks everything, but evicting every
// victim still cannot cover its demand, so nothing may be evicted for
// it.
func TestPolicyNeverDropsUnplaceableJob(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr := &Trace{
				Fleet:  Spec{Env: "Hybrid", Nodes: 4},
				Policy: name,
				Scenario: &scenario.Scenario{
					Name:   "capacity-loss",
					Events: []scenario.Event{{Kind: scenario.FailNode, At: 0, Node: 0}},
				},
				Jobs: []Job{
					{ID: "fits", Submit: 0, GPUs: 8, Iterations: 1, Model: pg1(), Priority: 1, Tenant: "t1"},
					{ID: "whale", Submit: 1, GPUs: 32, Iterations: 1, Model: pg1(), Deadline: 50, Priority: 9},
					{ID: "later", Submit: 2, GPUs: 16, Iterations: 1, Model: pg1(), Tenant: "t2", Weight: 2},
				},
			}
			sched, err := Replay(nil, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Jobs) != len(tr.Jobs) {
				t.Fatalf("schedule has %d jobs, trace has %d", len(sched.Jobs), len(tr.Jobs))
			}
			seen := make(map[string]bool)
			for _, p := range sched.Jobs {
				if seen[p.JobID] {
					t.Fatalf("job %s appears twice", p.JobID)
				}
				seen[p.JobID] = true
				placed := len(p.Nodes) > 0
				if placed == (p.Unplaced != "") {
					t.Fatalf("job %s is neither cleanly placed nor cleanly refused: %+v", p.JobID, p)
				}
				if p.Preemptions != 0 {
					t.Fatalf("job %s was preempted for a whale the fleet cannot hold anyway", p.JobID)
				}
			}
			whale := placementOf(t, sched, "whale")
			if whale.Unplaced == "" {
				t.Fatal("whale demands 4 nodes of a 3-node surviving fleet yet was not reported unplaced")
			}
			for _, id := range []string{"fits", "later"} {
				if p := placementOf(t, sched, id); p.Unplaced != "" {
					t.Fatalf("job %s should run on the surviving fleet, got unplaced: %s", id, p.Unplaced)
				}
			}
		})
	}
}

// TestPolicyIncrementalMatchesOracle drives each policy through seeded
// random mutation sequences on both the checkpoint/resume manager and
// the from-scratch oracle, requiring byte-equal schedules after every
// step — the PR-6 differential contract extended to every policy.
func TestPolicyIncrementalMatchesOracle(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 101))
			inc, err := NewManager(eng, topo)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewManager(oracleEng, topo)
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.SetPolicy(name); err != nil {
				t.Fatal(err)
			}
			if err := oracle.SetPolicy(name); err != nil {
				t.Fatal(err)
			}
			var log []string
			var ids []string
			nextID := 0
			for step := 0; step < 12; step++ {
				mut := richMutation(rng, &ids, &nextID)
				log = append(log, mut.desc)
				errInc := mut.apply(inc)
				errOra := mut.apply(oracle)
				if (errInc == nil) != (errOra == nil) {
					t.Fatalf("mutation error divergence after:\n%s\nincremental: %v\noracle: %v",
						joinLog(log), errInc, errOra)
				}
				compareManagers(t, inc, oracle, log)
			}
		})
	}
}

// richMutation biases toward submits carrying the policy dimensions.
func richMutation(rng *rand.Rand, ids *[]string, nextID *int) mutator {
	if rng.Float64() < 0.55 || len(*ids) == 0 {
		id := fmt.Sprintf("p%d", *nextID)
		*nextID++
		*ids = append(*ids, id)
		submit := float64(rng.Intn(40))
		j := Job{
			ID:         id,
			Submit:     submit,
			GPUs:       8 * (1 + rng.Intn(2)),
			Iterations: 1 + rng.Intn(2),
			Model:      pg1(),
			Priority:   rng.Intn(3),
			Tenant:     []string{"", "t1", "t2"}[rng.Intn(3)],
			Weight:     []float64{0, 0.5, 2}[rng.Intn(3)],
		}
		if rng.Intn(2) == 0 {
			j.Deadline = submit + 30 + float64(rng.Intn(60))
		}
		return mutator{
			desc: fmt.Sprintf("submit %s gpus=%d submit=%g prio=%d tenant=%q w=%g dl=%g",
				id, j.GPUs, submit, j.Priority, j.Tenant, j.Weight, j.Deadline),
			apply: func(m *Manager) error { return m.Submit(j) },
		}
	}
	return randomMutation(rng, ids, nextID)
}

// TestPolicySwitchIncremental walks one live manager pair through every
// policy in sequence over a fixed job set: a switch invalidates all
// checkpoints, so the incremental manager must land on the oracle's
// from-scratch answer under each policy in turn.
func TestPolicySwitchIncremental(t *testing.T) {
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
	jobs := []Job{
		{ID: "s1", Submit: 0, GPUs: 16, Iterations: 2, Model: pg1(), Tenant: "t1"},
		{ID: "s2", Submit: 0, GPUs: 16, Iterations: 2, Model: pg1(), Tenant: "t2", Priority: 1},
		{ID: "s3", Submit: 3, GPUs: 32, Iterations: 1, Model: pg1(), Priority: 4, Deadline: 90},
		{ID: "s4", Submit: 6, GPUs: 8, Iterations: 2, Model: pg1(), Tenant: "t1", Weight: 2},
	}
	log := []string{"submit s1..s4"}
	for _, j := range jobs {
		if err := inc.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	compareManagers(t, inc, oracle, log)
	for _, name := range []string{"priority", "edf", "fair", "fifo", "priority"} {
		if err := inc.SetPolicy(name); err != nil {
			t.Fatal(err)
		}
		if err := oracle.SetPolicy(name); err != nil {
			t.Fatal(err)
		}
		log = append(log, "switch policy to "+name)
		compareManagers(t, inc, oracle, log)
		if got := inc.Policy(); got != name {
			t.Fatalf("Policy() = %q, want %q", got, name)
		}
	}
	if err := inc.SetPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
