package trainer

import (
	"math/rand"
	"testing"

	"holmes/internal/model"
	"holmes/internal/topogen"
	"holmes/internal/topology"
)

// checkAdmissible simulates one cell and, when it is feasible, asserts
// the analytic bound never exceeds the simulated iteration time. The
// bound's only contract is admissibility — LowerBound(cfg) ≤
// Simulate(cfg).IterSeconds — because the pruned joint search
// (core.Planner.SearchPlan) turns it into a throughput upper bound: an
// overestimate could prune the true winner and silently change search
// results, while looseness only costs extra simulations.
func checkAdmissible(t *testing.T, label string, cfg Config) {
	t.Helper()
	rep, err := Simulate(cfg)
	if err != nil {
		return // infeasible cell: the search surfaces the error, nothing to bound
	}
	lb, err := LowerBound(cfg)
	if err != nil {
		t.Errorf("%s: simulates to %.6fs but LowerBound errors: %v", label, rep.IterSeconds, err)
		return
	}
	if lb <= 0 {
		t.Errorf("%s: non-positive bound %.6g", label, lb)
		return
	}
	if lb > rep.IterSeconds {
		t.Errorf("%s: bound %.9fs exceeds simulated %.9fs (overestimate by %.3g%%) — inadmissible",
			label, lb, rep.IterSeconds, (lb/rep.IterSeconds-1)*100)
	}
}

// TestLowerBoundAdmissible sweeps the deterministic grid the joint
// search actually walks: every environment, Table-3 node counts, two
// parameter groups, all four framework profiles, and the full (t, p)
// candidate space.
func TestLowerBoundAdmissible(t *testing.T) {
	envs := []topology.EnvName{
		topology.EnvInfiniBand, topology.EnvRoCE, topology.EnvEthernet, topology.EnvHybrid,
	}
	for _, env := range envs {
		for _, nodes := range []int{4, 8} {
			env, nodes := env, nodes
			t.Run(string(env)+"/n"+itoa(nodes), func(t *testing.T) {
				t.Parallel()
				topo, err := topology.Env(env, nodes)
				if err != nil {
					t.Fatal(err)
				}
				for _, group := range []int{1, 3} {
					pg := model.Group(group)
					for _, fw := range AllFrameworks {
						// Non-Holmes profiles differ only in option
						// knobs (unified NIC selection, DP traffic
						// scale, overlap); one parameter group already
						// exercises each knob, so keep the larger
						// group for Holmes alone and halve the sweep.
						if fw != Holmes && group != 1 {
							continue
						}
						for _, tile := range []int{1, 2, 4, 8} {
							for p := 1; p <= nodes; p++ {
								checkAdmissible(t,
									string(env)+"/"+string(fw)+cellLabel(group, nodes, tile, p),
									Config{
										Topo: topo, Spec: pg.Spec,
										TensorSize: tile, PipelineSize: p,
										Framework: fw,
									})
							}
						}
					}
				}
			})
		}
	}
}

// TestLowerBoundAdmissibleRandomized perturbs the option knobs the grid
// sweep holds fixed: random schedule, partition strategy, optimizer
// overlap, DP traffic scale, and alpha, over random cells. Seeded, so a
// failure reproduces.
func TestLowerBoundAdmissibleRandomized(t *testing.T) {
	envs := []topology.EnvName{
		topology.EnvInfiniBand, topology.EnvRoCE, topology.EnvEthernet, topology.EnvHybrid,
	}
	tiles := []int{1, 2, 4, 8}
	for shard := 0; shard < 8; shard++ {
		shard := shard
		t.Run("seed"+itoa(shard), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7 + int64(shard)))
			for trial := 0; trial < 6; trial++ {
				env := envs[rng.Intn(len(envs))]
				nodes := 4 + 2*rng.Intn(3) // 4, 6, 8
				group := 1 + rng.Intn(4)
				tile := tiles[rng.Intn(len(tiles))]
				p := 1 + rng.Intn(nodes)
				fw := AllFrameworks[rng.Intn(len(AllFrameworks))]
				opt := DefaultOptions(fw)
				opt.GPipeSchedule = rng.Intn(2) == 0
				opt.SelfAdaptingPartition = rng.Intn(2) == 0
				opt.OverlappedOptimizer = rng.Intn(2) == 0
				opt.ExtraDPTraffic = 1 + rng.Float64()
				opt.Alpha = 1 + rng.Float64()/4
				topo, err := topology.Env(env, nodes)
				if err != nil {
					t.Fatal(err)
				}
				checkAdmissible(t,
					string(env)+"/"+string(fw)+cellLabel(group, nodes, tile, p)+"(randomized options)",
					Config{
						Topo: topo, Spec: model.Group(group).Spec,
						TensorSize: tile, PipelineSize: p,
						Framework: fw, Opt: &opt,
					})
			}
		})
	}
}

// TestLowerBoundAdmissibleGenerated extends the sweep over generated
// shapes (internal/topogen, shared with the planner's differential):
// 1–3 clusters of any technology in any order, uneven sizes, PCIe nodes
// and degraded NICs, every framework and every (t, p) cell.
func TestLowerBoundAdmissibleGenerated(t *testing.T) {
	shapes, err := topogen.Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.Label, func(t *testing.T) {
			t.Parallel()
			spec := model.Group(sh.Group).Spec
			for _, fw := range AllFrameworks {
				for tile := 1; tile <= sh.Topo.GPUsPerNode; tile *= 2 {
					for p := 1; p <= sh.Topo.NumNodes(); p++ {
						checkAdmissible(t, string(fw)+cellLabel(sh.Group, sh.Topo.NumNodes(), tile, p), Config{
							Topo: sh.Topo, Spec: spec,
							TensorSize: tile, PipelineSize: p,
							Framework: fw,
						})
					}
				}
			}
		})
	}
}

// TestLowerBoundTightWithoutContention pins the bound's tightness where
// nothing contends: one stage, no tensor parallelism and a single
// data-parallel group, so every pipeline runs its ops back to back and
// the group's collectives run alone on their links. The bound evaluates
// the same iteration and must meet the simulated time up to its slack.
func TestLowerBoundTightWithoutContention(t *testing.T) {
	topo := topology.IBEnv(4)
	for _, fw := range AllFrameworks {
		cfg := Config{Topo: topo, Spec: model.Group(1).Spec, TensorSize: 1, PipelineSize: 1, Framework: fw}
		rep, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LowerBound(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r := lb / rep.IterSeconds; r < 1-1e-6 || r > 1 {
			t.Errorf("%s: bound/simulated = %.12f (bound %.9gs, simulated %.9gs), want within 1e-6 below 1",
				fw, r, lb, rep.IterSeconds)
		}
	}
}

func cellLabel(group, nodes, tile, p int) string {
	return "/group" + itoa(group) + "/n" + itoa(nodes) + "/t" + itoa(tile) + "/p" + itoa(p)
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}
