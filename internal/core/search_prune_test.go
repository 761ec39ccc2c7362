package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topogen"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// The pruned joint search is a pure performance change: its winner, the
// winner's full report, and its error behaviour must be bit-identical to
// the exhaustive scan it replaced (the reference arm, selected by the
// engine's FullRecompute knob). The pruned arm runs on a fresh engine
// per search, so neither the winner memo nor the communicator cache lets
// it see earlier work; the oracle arm never reads or writes the memo, so
// one oracle engine serves a whole test.

// newOracle builds the engine every oracle arm of one test shares.
func newOracle() *engine.Engine { return engine.New(engine.Config{FullRecompute: true}) }

// newArm builds a planner on the given engine (nil = a fresh default
// engine, the pruned arm).
func newArm(t *testing.T, eng *engine.Engine, env topology.EnvName, nodes, group int) *Planner {
	t.Helper()
	topo, err := topology.Env(env, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		eng = engine.New(engine.Config{})
	}
	pl, err := NewPlannerOn(eng, topo, model.Group(group).Spec)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// comparePlans asserts two search outcomes are bit-identical: same error
// string or same winner degrees, partition, and full report.
func comparePlans(t *testing.T, label string, got, want *Plan, gotErr, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error mismatch: pruned %v vs exhaustive %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text diverged: %q vs %q", label, gotErr, wantErr)
		}
		return
	}
	if got.Degrees != want.Degrees {
		t.Fatalf("%s: winner diverged: pruned %+v vs exhaustive %+v", label, got.Degrees, want.Degrees)
	}
	if !reflect.DeepEqual(got.Partition, want.Partition) {
		t.Fatalf("%s: partition diverged:\npruned     %+v\nexhaustive %+v", label, got.Partition, want.Partition)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("%s: report diverged:\npruned     %+v\nexhaustive %+v", label, got.Report, want.Report)
	}
}

// TestSearchPlanMatchesExhaustive is the Table-3-shaped differential:
// every environment, both node counts, two parameter groups.
func TestSearchPlanMatchesExhaustive(t *testing.T) {
	oracleEng := newOracle()
	for _, env := range []topology.EnvName{
		topology.EnvInfiniBand, topology.EnvRoCE, topology.EnvEthernet, topology.EnvHybrid,
	} {
		for _, nodes := range []int{4, 8} {
			for _, group := range []int{1, 3} {
				pruned := newArm(t, nil, env, nodes, group)
				oracle := newArm(t, oracleEng, env, nodes, group)
				got, gotErr := pruned.SearchPlan()
				want, wantErr := oracle.SearchPlan()
				label := string(env) + "/" + string(rune('0'+nodes)) + "n/group" + string(rune('0'+group))
				comparePlans(t, label, got, want, gotErr, wantErr)

				// The pruned arm must actually prune somewhere on this
				// grid; counters prove the fast path ran (not a silent
				// fall-through to the exhaustive scan).
				st := pruned.Engine.SearchStats()
				if st.Searches != 1 {
					t.Fatalf("%s: pruned arm ran %d searches", label, st.Searches)
				}
				if ost := oracle.Engine.SearchStats(); ost.Pruned != 0 {
					t.Fatalf("%s: exhaustive arm pruned %d cells", label, ost.Pruned)
				}
			}
		}
	}
}

// TestSearchPlanMatchesExhaustiveGenerated runs the differential over
// generated shapes (internal/topogen, shared with the bound's
// admissibility test): 1–3 clusters of any technology in any order,
// uneven sizes, PCIe nodes and degraded NICs, under every framework.
func TestSearchPlanMatchesExhaustiveGenerated(t *testing.T) {
	shapes, err := topogen.Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	oracleEng := newOracle()
	for _, sh := range shapes {
		spec := model.Group(sh.Group).Spec
		for _, fw := range trainer.AllFrameworks {
			pruned, err := NewPlannerOn(engine.New(engine.Config{}), sh.Topo, spec)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewPlannerOn(oracleEng, sh.Topo, spec)
			if err != nil {
				t.Fatal(err)
			}
			pruned.Framework, oracle.Framework = fw, fw
			got, gotErr := pruned.SearchPlan()
			want, wantErr := oracle.SearchPlan()
			comparePlans(t, sh.Label+"/"+string(fw), got, want, gotErr, wantErr)
		}
	}
}

// TestSearchPlanPrunesSomething pins the perf claim behind the bound: on
// a representative search it must rule out more candidates before
// simulating them than the abort projection stops mid-simulation. The
// engine's width is pinned, because the wave width decides which
// incumbent each cell meets.
func TestSearchPlanPrunesSomething(t *testing.T) {
	pl := newArm(t, engine.New(engine.Config{Concurrency: 2}), topology.EnvHybrid, 8, 1)
	if _, err := pl.SearchPlan(); err != nil {
		t.Fatal(err)
	}
	st := pl.Engine.SearchStats()
	if st.Pruned <= st.Aborted {
		t.Fatalf("pruned %d cells, aborted %d (simulated %d): the bound should prune more than it leaves to the abort",
			st.Pruned, st.Aborted, st.Simulated)
	}
	t.Logf("hybrid/8n/group1: simulated %d, pruned %d, aborted %d", st.Simulated, st.Pruned, st.Aborted)
}

// TestSearchPipelineMatchesExhaustive covers the single-axis restriction
// of the same code path.
func TestSearchPipelineMatchesExhaustive(t *testing.T) {
	oracleEng := newOracle()
	for _, tile := range []int{1, 2} {
		pruned := newArm(t, nil, topology.EnvRoCE, 4, 1)
		oracle := newArm(t, oracleEng, topology.EnvRoCE, 4, 1)
		got, gotErr := pruned.SearchPipeline(tile)
		want, wantErr := oracle.SearchPipeline(tile)
		comparePlans(t, "t="+string(rune('0'+tile)), got, want, gotErr, wantErr)
	}
}

// TestSearchPlanMatchesExhaustiveRandomized drives both arms over
// random frameworks and option perturbations. Seeded; runs under -race
// in CI like every test.
func TestSearchPlanMatchesExhaustiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	oracleEng := newOracle()
	envs := []topology.EnvName{
		topology.EnvInfiniBand, topology.EnvRoCE, topology.EnvEthernet, topology.EnvHybrid,
	}
	for trial := 0; trial < 6; trial++ {
		env := envs[rng.Intn(len(envs))]
		nodes := 4 + 2*rng.Intn(2) // 4, 6
		group := 1 + rng.Intn(2)
		fw := trainer.AllFrameworks[rng.Intn(len(trainer.AllFrameworks))]
		opt := trainer.DefaultOptions(fw)
		opt.OverlappedOptimizer = rng.Intn(2) == 0
		opt.SelfAdaptingPartition = rng.Intn(2) == 0
		opt.ExtraDPTraffic = 1 + rng.Float64()

		pruned := newArm(t, nil, env, nodes, group)
		pruned.Framework, pruned.Opt = fw, &opt
		oracle := newArm(t, oracleEng, env, nodes, group)
		oracle.Framework, oracle.Opt = fw, &opt

		got, gotErr := pruned.SearchPlan()
		want, wantErr := oracle.SearchPlan()
		comparePlans(t, string(env)+"/"+string(fw), got, want, gotErr, wantErr)
	}
}

// TestSearchMemoReplaysIdentically runs the same search twice on one
// engine: the second run must be answered by the winner memo (one replay
// simulation) and return a bit-identical plan.
func TestSearchMemoReplaysIdentically(t *testing.T) {
	pl := newArm(t, nil, topology.EnvHybrid, 4, 1)
	first, err := pl.SearchPlan()
	if err != nil {
		t.Fatal(err)
	}
	second, err := pl.SearchPlan()
	if err != nil {
		t.Fatal(err)
	}
	comparePlans(t, "memo replay", second, first, nil, nil)
	st := pl.Engine.SearchStats()
	if st.MemoHits != 1 {
		t.Fatalf("second search should hit the winner memo once, counters: %+v", st)
	}
	if st.Searches != 2 {
		t.Fatalf("expected 2 searches, counters: %+v", st)
	}

	// A different candidate space must not share the memo entry.
	if _, err := pl.SearchPipeline(1); err != nil {
		t.Fatal(err)
	}
	if st := pl.Engine.SearchStats(); st.MemoHits != 1 {
		t.Fatalf("t=1 search shares the joint memo entry, counters: %+v", st)
	}
}

// TestExhaustiveArmSkipsMemo: the oracle arm must not read or write the
// winner memo, or it would stop being independent evidence.
func TestExhaustiveArmSkipsMemo(t *testing.T) {
	pl := newArm(t, newOracle(), topology.EnvRoCE, 4, 1)
	for i := 0; i < 2; i++ {
		if _, err := pl.SearchPlan(); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Engine.SearchStats()
	if st.MemoHits != 0 || st.Pruned != 0 {
		t.Fatalf("exhaustive arm used the fast path: %+v", st)
	}
}

// TestFullRecomputeEngineImpliesExhaustive: the engine-level oracle knob
// alone must route a search down the exhaustive path — every candidate
// cell simulated to completion, none pruned, aborted or memoized.
func TestFullRecomputeEngineImpliesExhaustive(t *testing.T) {
	pl := newArm(t, newOracle(), topology.EnvRoCE, 4, 1)
	if _, err := pl.SearchPlan(); err != nil {
		t.Fatal(err)
	}
	st := pl.Engine.SearchStats()
	if st.Pruned != 0 || st.Aborted != 0 || st.MemoHits != 0 {
		t.Fatalf("full-recompute engine still pruned, aborted or memoized: %+v", st)
	}
	if cells := len(pl.SearchSpace()); st.Simulated != uint64(cells) {
		t.Fatalf("simulated %d of %d cells: %+v", st.Simulated, cells, st)
	}
}

// TestReplanOnOracleEngineStaysExhaustive: both searches of a replan —
// the pristine baseline and the one on the effective topology — must
// take the oracle path. ReplanFrom builds the second search's planner
// itself, so the oracle can only reach it through the shared engine.
func TestReplanOnOracleEngineStaysExhaustive(t *testing.T) {
	pl := newArm(t, newOracle(), topology.EnvHybrid, 8, 1)
	sc := &scenario.Scenario{
		Name:   "node-0-down",
		Events: []scenario.Event{{Kind: scenario.FailNode, At: 0, Node: 0}},
	}
	if _, err := pl.ReplanOn(sc, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	st := pl.Engine.SearchStats()
	if st.Searches != 2 {
		t.Fatalf("replan ran %d searches, want 2: %+v", st.Searches, st)
	}
	if st.Pruned != 0 || st.Aborted != 0 || st.MemoHits != 0 {
		t.Fatalf("replan on an oracle engine left the exhaustive path: %+v", st)
	}
}

// TestSearchErrorIdenticalWhenNothingFeasible: when the space is empty,
// or every cell of it fails to prepare, both arms must fail with the
// same message; a cell that fails to prepare still takes its wave slot,
// and counts as simulated, as the oracle's does.
func TestSearchErrorIdenticalWhenNothingFeasible(t *testing.T) {
	topo, err := topology.Env(topology.EnvInfiniBand, 4)
	if err != nil {
		t.Fatal(err)
	}
	badAlpha := trainer.DefaultOptions(trainer.Holmes)
	badAlpha.Alpha = -1 // every cell's self-adapting partition fails
	for _, c := range []struct {
		label string
		batch int
		opt   *trainer.Options
	}{
		{"empty space", 7, nil}, // prime, far below any feasible micro-batching grid
		{"no cell prepares", 0, &badAlpha},
	} {
		spec := model.Group(1).Spec
		if c.batch != 0 {
			spec.GlobalBatch = c.batch
		}
		pruned, err := NewPlannerOn(engine.New(engine.Config{}), topo, spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewPlannerOn(newOracle(), topo, spec)
		if err != nil {
			t.Fatal(err)
		}
		pruned.Opt, oracle.Opt = c.opt, c.opt
		_, prunedErr := pruned.SearchPlan()
		_, oracleErr := oracle.SearchPlan()
		if prunedErr == nil || oracleErr == nil {
			t.Fatalf("%s: expected both arms to fail: pruned %v, exhaustive %v", c.label, prunedErr, oracleErr)
		}
		if prunedErr.Error() != oracleErr.Error() {
			t.Fatalf("%s: error text diverged: %q vs %q", c.label, prunedErr, oracleErr)
		}
		if st, cells := pruned.Engine.SearchStats(), len(pruned.SearchSpace()); st.Simulated != uint64(cells) {
			t.Fatalf("%s: pruned arm simulated %d of %d cells: %+v", c.label, st.Simulated, cells, st)
		}
	}
}
