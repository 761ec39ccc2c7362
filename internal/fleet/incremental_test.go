package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// The incremental scheduler's contract is bit-identity with the
// from-scratch replay: the tests here drive both paths — the recorded
// checkpoint/resume Manager and an oracle Manager on a FullRecompute
// engine — through identical mutation sequences and require byte-equal
// schedules after every step.

func marshalSched(t *testing.T, s *Schedule) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mutator applies one mutation to a manager; the string names it for the
// failure log.
type mutator struct {
	desc  string
	apply func(m *Manager) error
}

func compareManagers(t *testing.T, inc, oracle *Manager, log []string) {
	t.Helper()
	got, err := inc.Schedule()
	if err != nil {
		t.Fatalf("incremental schedule failed after:\n%s\nerror: %v", joinLog(log), err)
	}
	want, err := oracle.Schedule()
	if err != nil {
		t.Fatalf("oracle schedule failed after:\n%s\nerror: %v", joinLog(log), err)
	}
	if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
		t.Fatalf("incremental schedule diverged from the from-scratch oracle after:\n%s\nincremental: %s\noracle:      %s",
			joinLog(log), g, w)
	}
}

func joinLog(log []string) string {
	out := ""
	for i, l := range log {
		out += fmt.Sprintf("  %2d. %s\n", i+1, l)
	}
	return out
}

// TestIncrementalMatchesOracleRandomized drives seeded random mutation
// sequences — submits at random instants, cancels, scenario events
// (fail/degrade/restore at random times), timeline swaps — against both
// managers. Any divergence prints the full mutation table for replay.
func TestIncrementalMatchesOracleRandomized(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{})
	oracleEng := engine.New(engine.Config{FullRecompute: true})
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			inc, err := NewManager(eng, topo)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewManager(oracleEng, topo)
			if err != nil {
				t.Fatal(err)
			}
			var log []string
			var ids []string
			nextID := 0
			for step := 0; step < 14; step++ {
				mut := randomMutation(rng, &ids, &nextID)
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

func hybridTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := (Spec{Env: "Hybrid", Nodes: 4}).Topology()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func randomMutation(rng *rand.Rand, ids *[]string, nextID *int) mutator {
	roll := rng.Float64()
	switch {
	case roll < 0.45 || len(*ids) == 0:
		id := fmt.Sprintf("j%d", *nextID)
		*nextID++
		*ids = append(*ids, id)
		gpus := 8 * (1 + rng.Intn(2)) // 1 or 2 nodes of 8 GPUs
		submit := float64(rng.Intn(40))
		iters := 1 + rng.Intn(2)
		j := Job{ID: id, Submit: submit, GPUs: gpus, Iterations: iters, Model: pg1()}
		return mutator{
			desc:  fmt.Sprintf("submit %s gpus=%d submit=%g iters=%d", id, gpus, submit, iters),
			apply: func(m *Manager) error { return m.Submit(j) },
		}
	case roll < 0.6:
		victim := (*ids)[rng.Intn(len(*ids))]
		*ids = removeID(*ids, victim)
		return mutator{
			desc:  fmt.Sprintf("cancel %s", victim),
			apply: func(m *Manager) error { m.Cancel(victim); return nil },
		}
	case roll < 0.66:
		ev := scenario.Event{Kind: scenario.FailNode, At: float64(rng.Intn(60)), Node: rng.Intn(4)}
		return mutator{
			desc:  fmt.Sprintf("fail_node node=%d at=%g", ev.Node, ev.At),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.72:
		ev := scenario.Event{
			Kind: scenario.DegradeNIC, At: float64(rng.Intn(60)),
			Node: rng.Intn(4), Class: scenario.ClassRDMA,
			Factor: 0.25 + 0.25*float64(rng.Intn(3)),
		}
		return mutator{
			desc:  fmt.Sprintf("degrade_nic node=%d at=%g factor=%g", ev.Node, ev.At, ev.Factor),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.78:
		ev := scenario.Event{Kind: scenario.RestoreNode, At: float64(rng.Intn(60)), Node: rng.Intn(4)}
		return mutator{
			desc:  fmt.Sprintf("restore_node node=%d at=%g", ev.Node, ev.At),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.83:
		ev := scenario.Event{
			Kind: scenario.Straggler, At: float64(rng.Intn(60)),
			Node: rng.Intn(4), Factor: 0.4 + 0.2*float64(rng.Intn(3)),
		}
		return mutator{
			desc:  fmt.Sprintf("straggler node=%d at=%g factor=%g", ev.Node, ev.At, ev.Factor),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.88:
		at := float64(rng.Intn(50))
		ev := scenario.Event{
			Kind: scenario.Loss, At: at, Until: at + 5 + float64(rng.Intn(10)),
			Node: rng.Intn(4), Pct: 10 + 10*float64(rng.Intn(5)),
		}
		return mutator{
			desc:  fmt.Sprintf("loss node=%d at=%g until=%g pct=%g", ev.Node, ev.At, ev.Until, ev.Pct),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.92:
		at := float64(rng.Intn(50))
		ev := scenario.Event{
			Kind: scenario.FlapLink, At: at, Until: at + 2 + float64(rng.Intn(6)),
			Node: rng.Intn(4), DownMs: 200, UpMs: 300,
		}
		return mutator{
			desc:  fmt.Sprintf("flap_link node=%d at=%g until=%g", ev.Node, ev.At, ev.Until),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	case roll < 0.96:
		ev := scenario.Event{Kind: scenario.FailCluster, At: float64(rng.Intn(60)), Cluster: rng.Intn(2)}
		return mutator{
			desc:  fmt.Sprintf("fail_cluster cluster=%d at=%g", ev.Cluster, ev.At),
			apply: func(m *Manager) error { return m.ApplyEvent(ev) },
		}
	default:
		return mutator{
			desc:  "clear scenario",
			apply: func(m *Manager) error { return m.SetScenario(nil) },
		}
	}
}

func removeID(ids []string, id string) []string {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// TestIncrementalFleet12MatchesOracle walks the canonical 12-job trace
// through a live manager — staged submits with schedule polls in
// between, then the golden trace's scenario spliced in, then a cancel
// and a re-submit — always in lockstep with the from-scratch oracle.
// This is the deterministic (non-randomized) differential anchor on the
// exact workload the golden file pins.
func TestIncrementalFleet12MatchesOracle(t *testing.T) {
	tr := loadTrace(t)
	topo, err := tr.Fleet.Topology()
	if err != nil {
		t.Fatal(err)
	}
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
		log = append(log, desc)
		if err := f(inc); err != nil {
			t.Fatalf("%s (incremental): %v", desc, err)
		}
		if err := f(oracle); err != nil {
			t.Fatalf("%s (oracle): %v", desc, err)
		}
		compareManagers(t, inc, oracle, log)
	}
	for _, j := range tr.Jobs {
		j := j
		step("submit "+j.ID, func(m *Manager) error { return m.Submit(j) })
	}
	step("splice scenario", func(m *Manager) error { return m.SetScenario(tr.Scenario) })
	victim := tr.Jobs[len(tr.Jobs)-1]
	step("cancel "+victim.ID, func(m *Manager) error { m.Cancel(victim.ID); return nil })
	step("re-submit "+victim.ID, func(m *Manager) error { return m.Submit(victim) })
	step("clear scenario", func(m *Manager) error { return m.SetScenario(nil) })
	step("restore scenario", func(m *Manager) error { return m.SetScenario(tr.Scenario) })

	// The surviving job set equals the full canonical trace, so the
	// incremental manager must land exactly on the from-scratch replay of
	// the golden workload.
	want, err := Replay(eng, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("manager schedule has %d jobs, replay has %d", len(got.Jobs), len(want.Jobs))
	}
	byID := make(map[string]Placement, len(want.Jobs))
	for _, p := range want.Jobs {
		byID[p.JobID] = p
	}
	for _, p := range got.Jobs {
		w, ok := byID[p.JobID]
		if !ok {
			t.Fatalf("manager schedule has unknown job %s", p.JobID)
		}
		if diff := diffPlacements(w, p); diff != "" {
			t.Errorf("job %s drifted between manager and replay:\n%s", p.JobID, diff)
		}
	}
	if got.Makespan != want.Makespan {
		t.Errorf("makespan drifted: replay %.17g, manager %.17g", want.Makespan, got.Makespan)
	}
}

// TestFleet12GoldenAcrossPoolSizes replays the canonical trace on
// engines with worker pools of 1, 2, and 8 and requires each schedule to
// match the committed golden byte for byte: concurrent candidate
// scoring, backfill scanning, and replan fan-out must never let pool
// size leak into a decision. Run under -race in CI, this doubles as the
// concurrency soak for the scoring fan-out.
func TestFleet12GoldenAcrossPoolSizes(t *testing.T) {
	tr := loadTrace(t)
	for _, conc := range []int{1, 2, 8} {
		conc := conc
		t.Run(fmt.Sprintf("concurrency%d", conc), func(t *testing.T) {
			eng := engine.New(engine.Config{Concurrency: conc})
			sched, err := Replay(eng, tr)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fleet12", sched)
		})
	}
}

// TestPlanCacheSharedAcrossSchedulers proves the memo moved off the
// Scheduler: a second scheduler on the same engine replays the canonical
// trace without a single additional plan-cache miss, and bit-identically.
func TestPlanCacheSharedAcrossSchedulers(t *testing.T) {
	tr := loadTrace(t)
	topo, err := tr.Fleet.Topology()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{})
	s1, err := NewScheduler(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s1.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	cold := eng.PlanCacheStats()
	if cold.Misses == 0 || cold.Size == 0 {
		t.Fatalf("cold replay populated nothing: %+v", cold)
	}
	s2, err := NewScheduler(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s2.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	warm := eng.PlanCacheStats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm replay on a fresh scheduler missed the shared cache: cold %+v, warm %+v", cold, warm)
	}
	if warm.Hits <= cold.Hits {
		t.Fatalf("warm replay recorded no hits: cold %+v, warm %+v", cold, warm)
	}
	if marshalSched(t, first) != marshalSched(t, second) {
		t.Fatal("a warm plan cache changed the schedule")
	}
}
