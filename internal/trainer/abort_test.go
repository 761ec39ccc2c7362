package trainer

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topogen"
	"holmes/internal/topology"
)

// checkProjection runs one cell against a deadline that never falls and
// asserts the abort projection is admissible: no op-completion projection
// of a run that completes exceeds its iteration time beyond the bound's
// slack. An overestimate would abort a cell that beats the incumbent —
// the winner itself — and silently change search results.
func checkProjection(t *testing.T, label string, cfg Config) {
	t.Helper()
	rep, out, err := SimulateBounded(cfg, NewDeadline(math.Inf(1)))
	if err != nil {
		return // infeasible cell: nothing to project
	}
	if out.peak <= 0 || out.Events == 0 {
		t.Errorf("%s: projection never evaluated (peak %g, %d events)", label, out.peak, out.Events)
	}
	if out.peak > rep.IterSeconds*(1+boundSlack) {
		t.Errorf("%s: projection %.9fs exceeds simulated %.9fs (overestimate by %.3g%%) — inadmissible",
			label, out.peak, rep.IterSeconds, (out.peak/rep.IterSeconds-1)*100)
	}
	if out.LostTo(rep.IterSeconds) {
		t.Errorf("%s: a run loses to its own iteration time", label)
	}
}

// scheduleVariants are the option profiles the projection must hold
// under: both schedules, with and without the overlapped optimizer.
func scheduleVariants(fw Framework) map[string]Options {
	out := map[string]Options{}
	for _, gpipe := range []bool{false, true} {
		for _, overlap := range []bool{false, true} {
			opt := DefaultOptions(fw)
			opt.GPipeSchedule, opt.OverlappedOptimizer = gpipe, overlap
			label := "1F1B"
			if gpipe {
				label = "GPipe"
			}
			if overlap {
				label += "+overlap"
			}
			out[label] = opt
		}
	}
	return out
}

// TestProjectionAdmissible sweeps the Table-3 grid — every environment,
// the smallest and largest node counts, two parameter groups, every
// pipeline degree at t = 1 and 2 (GPipe at t = 1, as below) — under both
// schedules, with and without the overlapped optimizer.
func TestProjectionAdmissible(t *testing.T) {
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
					for label, opt := range scheduleVariants(Holmes) {
						opt := opt
						for tile := 1; tile <= 2 && (tile == 1 || !opt.GPipeSchedule); tile++ {
							for p := 1; p <= nodes; p++ {
								checkProjection(t, label+cellLabel(group, nodes, tile, p), Config{
									Topo: topo, Spec: model.Group(group).Spec,
									TensorSize: tile, PipelineSize: p,
									Framework: Holmes, Opt: &opt,
								})
							}
						}
					}
				}
			})
		}
	}
}

// TestProjectionAdmissibleGenerated extends the sweep over generated
// shapes (internal/topogen): 1–3 clusters of any technology in any
// order, uneven sizes, PCIe nodes and degraded NICs, and every (t, p)
// cell under both schedules, with and without overlap. The shapes take
// the frameworks' NIC selections in turn. GPipe runs at t = 1 only: a
// GPipe run keeps more transfers in flight, so each of its events costs
// the fabric's rebalance several times a 1F1B event's, and more so at
// the larger micro-batch counts of higher t.
func TestProjectionAdmissibleGenerated(t *testing.T) {
	shapes, err := topogen.Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	for k, sh := range shapes {
		sh, fw := sh, AllFrameworks[k%len(AllFrameworks)]
		t.Run(sh.Label, func(t *testing.T) {
			t.Parallel()
			spec := model.Group(sh.Group).Spec
			for label, opt := range scheduleVariants(fw) {
				opt := opt
				for tile := 1; tile <= sh.Topo.GPUsPerNode && (tile == 1 || !opt.GPipeSchedule); tile *= 2 {
					for p := 1; p <= sh.Topo.NumNodes(); p++ {
						checkProjection(t, string(fw)+"/"+label+cellLabel(sh.Group, sh.Topo.NumNodes(), tile, p), Config{
							Topo: sh.Topo, Spec: spec,
							TensorSize: tile, PipelineSize: p,
							Framework: fw, Opt: &opt,
						})
					}
				}
			}
		})
	}
}

// TestSimulateBoundedStopsLosers: a run whose deadline lies below its
// iteration time stops early with ErrAboveBound, having fired fewer
// events than the complete run, and loses to that deadline; a deadline
// at exactly its iteration time lets it complete.
func TestSimulateBoundedStopsLosers(t *testing.T) {
	cfg := Config{Topo: topology.HybridEnv(8), Spec: model.Group(1).Spec, TensorSize: 1, PipelineSize: 4, Framework: Holmes}
	rep, full, err := SimulateBounded(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Events == 0 || full.peak != 0 {
		t.Fatalf("an unbounded run fired %d events, projected %g", full.Events, full.peak)
	}
	_, out, err := SimulateBounded(cfg, NewDeadline(0.9*rep.IterSeconds))
	if !errors.Is(err, ErrAboveBound) {
		t.Fatalf("deadline below the iteration time: err %v", err)
	}
	if !out.LostTo(0.9*rep.IterSeconds) || out.Events >= full.Events {
		t.Fatalf("stopped run: lost %v, %d of %d events", out.LostTo(0.9*rep.IterSeconds), out.Events, full.Events)
	}
	tie, out, err := SimulateBounded(cfg, NewDeadline(rep.IterSeconds))
	if err != nil || !reflect.DeepEqual(tie, rep) || out.LostTo(rep.IterSeconds) {
		t.Fatalf("deadline at the iteration time: err %v, lost %v", err, out.LostTo(rep.IterSeconds))
	}
}

// TestSimulateBoundedFollowsALoweredDeadline: a deadline lowered while
// the run is under way stops it, as a wave-mate completing first does.
func TestSimulateBoundedFollowsALoweredDeadline(t *testing.T) {
	cfg := Config{Topo: topology.HybridEnv(8), Spec: model.Group(1).Spec, TensorSize: 1, PipelineSize: 4, Framework: Holmes}
	rep, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dl := NewDeadline(math.Inf(1))
	it, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lower the deadline from inside the run, a tenth of the way in.
	it.eng.At(rep.IterSeconds/10, func() { dl.Lower(rep.IterSeconds / 2) })
	if _, _, err := it.run(dl); !errors.Is(err, ErrAboveBound) {
		t.Fatalf("lowered deadline: err %v", err)
	}
}

// TestDeadlineLowerConcurrent: concurrent Lowers leave the smallest.
func TestDeadlineLowerConcurrent(t *testing.T) {
	dl := NewDeadline(math.Inf(1))
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			dl.Lower(v)
			dl.Lower(v + 10)
		}(float64(i))
	}
	wg.Wait()
	if got := dl.Load(); got != 1 {
		t.Fatalf("deadline %g after concurrent lowers, want 1", got)
	}
}

// TestSimulateBoundedUnderScenario: a scenario run keeps the stage's own
// remaining work and its own group's tail as its projection, which a
// node that fails and comes back cannot undercut, and reports exactly
// what Simulate reports.
func TestSimulateBoundedUnderScenario(t *testing.T) {
	sc := &scenario.Scenario{Name: "flap", Events: []scenario.Event{
		{Kind: scenario.FailNode, At: 0, Node: 0},
		{Kind: scenario.RestoreNode, At: 0.5, Node: 0},
	}}
	for label, opt := range scheduleVariants(Holmes) {
		opt := opt
		cfg := Config{
			Topo: topology.HybridEnv(4), Spec: model.Group(1).Spec,
			TensorSize: 1, PipelineSize: 2, Framework: Holmes, Opt: &opt,
			Scenario: sc,
		}
		want, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, out, err := SimulateBounded(cfg, NewDeadline(math.Inf(1)))
		if err != nil || !reflect.DeepEqual(rep, want) {
			t.Fatalf("%s: bounded scenario run diverged (err %v):\n%+v\n%+v", label, err, rep, want)
		}
		if out.peak <= 0 || out.peak > rep.IterSeconds*(1+boundSlack) {
			t.Fatalf("%s: projection %.9fs against iteration %.9fs", label, out.peak, rep.IterSeconds)
		}
	}
}
