package fleet

import (
	"testing"

	"holmes/internal/engine"
	"holmes/internal/scenario"
)

// TestSetScenarioAliasingDoesNotDesync is the regression test for the
// timeline-aliasing bug: SetScenario used to store the caller's
// *scenario.Scenario, so a caller mutating sc.Events after the call was
// silently rewriting the manager's checkpointed replay state — with no
// invalidateFrom fired, the incremental path would resume from
// checkpoints taken under the old timeline and desync from the
// from-scratch oracle. The fix deep-copies on the way in (and out, via
// Scenario()); this test mutates the caller's scenario and the
// Scenario() return value after the fact and requires the incremental
// manager to stay bit-identical to an oracle that was handed a private
// copy.
func TestSetScenarioAliasingDoesNotDesync(t *testing.T) {
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
		{ID: "a", Submit: 0, GPUs: 16, Iterations: 2, Model: pg1()},
		{ID: "b", Submit: 5, GPUs: 16, Iterations: 2, Model: pg1()},
		{ID: "c", Submit: 10, GPUs: 8, Iterations: 1, Model: pg1()},
	}
	log := []string{"submit a,b,c"}
	for _, j := range jobs {
		if err := inc.Submit(j); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	compareManagers(t, inc, oracle, log)

	// The caller's scenario: one node failure late in the replay. The
	// oracle gets its own private clone so a shared-pointer bug in the
	// incremental manager cannot hide by corrupting both sides equally.
	sc := &scenario.Scenario{
		Name:   "alias",
		Events: []scenario.Event{{Kind: scenario.FailNode, At: 30, Node: 1}},
	}
	if err := inc.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	if err := oracle.SetScenario(sc.Clone()); err != nil {
		t.Fatal(err)
	}
	log = append(log, "set scenario fail_node@30")
	compareManagers(t, inc, oracle, log)
	base, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	baseline := marshalSched(t, base)

	// Sanity: the mutation below must be one the scheduler can observe,
	// or the test would pass vacuously. A fresh replay under the mutated
	// timeline has to differ from the baseline.
	mutated := sc.Clone()
	mutated.Events[0].At = 1
	mutSched, err := Replay(eng, &Trace{Fleet: Spec{Env: "Hybrid", Nodes: 4}, Jobs: jobs, Scenario: mutated})
	if err != nil {
		t.Fatal(err)
	}
	if marshalSched(t, mutSched) == baseline {
		t.Fatal("moving the failure from t=30 to t=1 did not change the schedule; pick a sharper mutation")
	}

	// The attack: rewrite the caller's event in place after SetScenario.
	// Pre-fix this reached the manager's live timeline without any
	// checkpoint invalidation.
	sc.Events[0].At = 1
	log = append(log, "mutate caller's sc.Events[0].At after SetScenario")
	compareManagers(t, inc, oracle, log)
	if got, err := inc.Schedule(); err != nil {
		t.Fatal(err)
	} else if marshalSched(t, got) != baseline {
		t.Fatal("mutating the caller's scenario after SetScenario changed the manager's schedule")
	}

	// Same on the way out: Scenario() hands back a copy, so mutating it
	// must not reach the replay state either.
	leaked := inc.Scenario()
	if leaked == nil || len(leaked.Events) != 1 {
		t.Fatalf("Scenario() = %+v, want the one-event timeline", leaked)
	}
	leaked.Events[0].At = 1
	log = append(log, "mutate Scenario() return value")
	compareManagers(t, inc, oracle, log)
	if got, err := inc.Schedule(); err != nil {
		t.Fatal(err)
	} else if marshalSched(t, got) != baseline {
		t.Fatal("mutating the Scenario() return value changed the manager's schedule")
	}
}

// TestOracleEngineKeepsNoCheckpoints pins the path Schedule takes: a
// manager on a FullRecompute engine replays from scratch and records no
// checkpoint, while one on a default engine records its instants for the
// next resume. The differential tests cannot see this — both paths give
// the same schedule — so without it an oracle arm that silently ran the
// incremental path would still pass them.
func TestOracleEngineKeepsNoCheckpoints(t *testing.T) {
	topo := hybridTopo(t)
	for _, oracle := range []bool{false, true} {
		m, err := NewManager(engine.New(engine.Config{FullRecompute: oracle}), topo)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(Job{ID: "a", GPUs: 8, Iterations: 1, Model: pg1()}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Schedule(); err != nil {
			t.Fatal(err)
		}
		if n := len(m.rec.checks); (n == 0) != oracle {
			t.Fatalf("FullRecompute=%v: %d checkpoints after Schedule", oracle, n)
		}
	}
}
