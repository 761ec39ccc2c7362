package trainer

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topogen"
	"holmes/internal/topology"
)

// A run that folds lockstep twins (Iteration.twins) must be invisible in
// every answer: it reports the bits the run simulating every twin
// reports, and only its event count falls. These tests hold the folded
// run against that unfolded oracle (fold switched off on a prepared
// iteration) over generated and fixed shapes, node widths where class
// weights are uneven, every framework and schedule, and bounded runs.

// foldRun is one run's result.
type foldRun struct {
	rep Report
	out Outcome
	err error
}

// runFolds prepares cfg twice and runs it folded and unfolded, each
// under a fresh deadline from dl (nil for an unbounded run). ok is false
// for a cell that does not prepare.
func runFolds(cfg Config, dl func() *Deadline) (folded, unfolded foldRun, ok bool) {
	run := func(fold bool) (foldRun, bool) {
		it, err := Prepare(cfg)
		if err != nil {
			return foldRun{}, false
		}
		it.fold = it.fold && fold
		var d *Deadline
		if dl != nil {
			d = dl()
		}
		rep, out, err := it.Run(d)
		return foldRun{rep, out, err}, true
	}
	folded, ok = run(true)
	if !ok {
		return foldRun{}, foldRun{}, false
	}
	unfolded, _ = run(false)
	return folded, unfolded, true
}

// peakRounding is how far apart a folded run's projection peak may sit
// from its oracle's, relative to it. The peak's volume term reads
// netsim.Link.Admitted, and where twins' hops and ring edges are
// admitted at one instant on one link, the unfolded run sums their
// bytes twin by twin while the folded one sums each record's w copies
// in a row, so the last bit can differ (DESIGN.md decision 18). That is
// a thousand times below boundSlack, which absorbs the projection's
// rounding.
const peakRounding = 1e-12

// foldDiff describes how a folded run departs from its unfolded oracle,
// or returns "" when it does not. A run that completed must match
// bit for bit in every reported time, in its modelled flows and in its
// rebalance passes, and fire no more events; a run stopped by its
// deadline must stop alike. Either way the projection must peak at the
// oracle's value up to peakRounding.
func foldDiff(f, u foldRun) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case fmt.Sprint(f.err) != fmt.Sprint(u.err):
		return fmt.Sprintf("error %v, oracle %v", f.err, u.err)
	case f.out.halted != u.out.halted:
		return fmt.Sprintf("halted %v, oracle %v", f.out.halted, u.out.halted)
	case math.Abs(f.out.peak-u.out.peak) > peakRounding*u.out.peak:
		return fmt.Sprintf("projection peak %v, oracle %v", f.out.peak, u.out.peak)
	case f.err != nil:
		return ""
	case !same(f.rep.IterSeconds, u.rep.IterSeconds),
		!same(f.rep.PipelineSeconds, u.rep.PipelineSeconds),
		!same(f.rep.ReduceScatterSeconds, u.rep.ReduceScatterSeconds),
		!same(f.out.end, u.out.end):
		return fmt.Sprintf("iter/pipeline/reduce-scatter %v/%v/%v s, oracle %v/%v/%v s",
			f.rep.IterSeconds, f.rep.PipelineSeconds, f.rep.ReduceScatterSeconds,
			u.rep.IterSeconds, u.rep.PipelineSeconds, u.rep.ReduceScatterSeconds)
	case !reflect.DeepEqual(f.rep, u.rep):
		return fmt.Sprintf("report %+v, oracle %+v", f.rep, u.rep)
	case f.out.Flows != u.out.Flows || f.out.Rebalances != u.out.Rebalances:
		return fmt.Sprintf("flows/rebalances %d/%d, oracle %d/%d",
			f.out.Flows, f.out.Rebalances, u.out.Flows, u.out.Rebalances)
	case f.out.Events > u.out.Events:
		return fmt.Sprintf("%d events, more than the oracle's %d", f.out.Events, u.out.Events)
	}
	return ""
}

// foldGroups and scheduleGroups are the parameter groups the sweeps
// run over; race_test.go narrows them, since the race detector slows a
// simulation several-fold and each one runs on a single goroutine.
var (
	foldGroups     = []int{1, 2, 3, 4}
	scheduleGroups = []int{1, 3}
)

// tensorDegrees lists every tensor degree a node of g GPUs admits.
func tensorDegrees(g int) []int {
	var out []int
	for t := 1; t <= g; t++ {
		if g%t == 0 {
			out = append(out, t)
		}
	}
	return out
}

// foldShapes are the fixed shapes of the sweep besides the generated
// ones: the paper's environments, and nodes of 4 and 6 GPUs, where t = 2
// folds nothing, t = 3 folds classes of 2 and 1, and t = 4 or 6 folds
// the whole tensor group.
func foldShapes() []*topology.Topology {
	return []*topology.Topology{
		topology.HybridEnv(4),
		topology.HybridEnv(8),
		topology.IBEnv(4),
		topology.MustBuild(topology.Spec{Clusters: []topology.ClusterSpec{{NIC: topology.Ethernet, Nodes: 6}}}),
		topology.RoCEEnv(8),
		topology.MustBuild(topology.Spec{GPUsPerNode: 4, Clusters: []topology.ClusterSpec{
			{NIC: topology.InfiniBand, Nodes: 2}, {NIC: topology.RoCE, Nodes: 2},
		}}),
		topology.MustBuild(topology.Spec{GPUsPerNode: 6, Clusters: []topology.ClusterSpec{
			{NIC: topology.InfiniBand, Nodes: 3}, {NIC: topology.Ethernet, Nodes: 2},
		}}),
		topology.MustBuild(topology.Spec{GPUsPerNode: 6, Intra: topology.PCIe, Clusters: []topology.ClusterSpec{
			{NIC: topology.RoCE, Nodes: 4},
		}}),
	}
}

// foldCell is one cell of the sweep.
type foldCell struct {
	label string
	cfg   Config
}

// foldCells lists, for every shape, every tensor degree its nodes admit
// and every pipeline degree up to 8 that tiles it, over the given
// parameter groups, on the given options.
func foldCells(topos []*topology.Topology, groups []int, fw Framework, opt *Options) []foldCell {
	var cells []foldCell
	for _, topo := range topos {
		for _, g := range groups {
			for _, tile := range tensorDegrees(topo.GPUsPerNode) {
				for p := 1; p <= 8; p++ {
					if topo.NumDevices()%(tile*p) != 0 {
						continue
					}
					cells = append(cells, foldCell{
						label: fmt.Sprintf("%s/%dx%d/%s", EnvLabel(topo), topo.NumNodes(), topo.GPUsPerNode, fw) +
							cellLabel(g, topo.NumNodes(), tile, p),
						cfg: Config{
							Topo: topo, Spec: model.Group(g).Spec,
							TensorSize: tile, PipelineSize: p,
							Framework: fw, Opt: opt,
						},
					})
				}
			}
		}
	}
	return cells
}

// checkFolds runs every cell folded and unfolded, unbounded, and
// reports each departure. It returns how many cells ran and how many of
// them folded a twin.
func checkFolds(t *testing.T, cells []foldCell) (ran, folded int) {
	t.Helper()
	for _, c := range cells {
		f, u, ok := runFolds(c.cfg, nil)
		if !ok {
			continue
		}
		ran++
		if d := foldDiff(f, u); d != "" {
			t.Errorf("%s: folded run departs from its oracle: %s", c.label, d)
		}
		if f.out.Events < u.out.Events {
			folded++
		}
	}
	return ran, folded
}

// TestTwinFoldMatchesOracle sweeps the generated shapes (2–6 nodes of any
// technology, PCIe and degraded nodes, each at its own parameter group)
// and the fixed shapes at groups 1–4 over every tensor degree the node
// admits and p ≤ 8, on Holmes's options.
func TestTwinFoldMatchesOracle(t *testing.T) {
	shapes, err := topogen.Shapes(27, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range foldShapes() {
		topo := topo
		t.Run(fmt.Sprintf("%s-%dx%d", EnvLabel(topo), topo.NumNodes(), topo.GPUsPerNode), func(t *testing.T) {
			t.Parallel()
			ran, folded := checkFolds(t, foldCells([]*topology.Topology{topo}, foldGroups, Holmes, nil))
			if ran == 0 || folded == 0 {
				t.Errorf("%d cells ran, %d folded: the sweep exercises no fold", ran, folded)
			}
		})
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.Label, func(t *testing.T) {
			t.Parallel()
			checkFolds(t, foldCells([]*topology.Topology{sh.Topo}, []int{sh.Group}, Holmes, nil))
		})
	}
}

// TestTwinFoldFrameworksAndSchedules holds the fold under every
// framework's NIC selection and DP traffic, 1F1B and GPipe, with and
// without the overlapped optimizer. GPipe keeps a stage's transfers in
// flight together, so each of its events costs the fabric several
// times a 1F1B event's; it sweeps one shape and one parameter group.
func TestTwinFoldFrameworksAndSchedules(t *testing.T) {
	topos := []*topology.Topology{
		topology.HybridEnv(4),
		topology.MustBuild(topology.Spec{GPUsPerNode: 6, Clusters: []topology.ClusterSpec{
			{NIC: topology.InfiniBand, Nodes: 2}, {NIC: topology.RoCE, Nodes: 2},
		}}),
	}
	for _, fw := range AllFrameworks {
		for label, opt := range scheduleVariants(fw) {
			fw, label, opt := fw, label, opt
			topos, groups := topos, scheduleGroups
			if opt.GPipeSchedule {
				topos, groups = topos[1:], groups[:1]
			}
			t.Run(string(fw)+"/"+label, func(t *testing.T) {
				t.Parallel()
				ran, folded := checkFolds(t, foldCells(topos, groups, fw, &opt))
				if ran == 0 || folded == 0 {
					t.Errorf("%d cells ran, %d folded: the sweep exercises no fold", ran, folded)
				}
			})
		}
	}
}

// TestTwinFoldBoundedRuns runs every folding cell against deadlines from
// 0.7 to 1.2 times its iteration time: the folded run must lose or win
// alike, stop alike, and peak at its oracle's projection up to
// peakRounding.
func TestTwinFoldBoundedRuns(t *testing.T) {
	sixes := topology.MustBuild(topology.Spec{GPUsPerNode: 6, Clusters: []topology.ClusterSpec{
		{NIC: topology.InfiniBand, Nodes: 3}, {NIC: topology.Ethernet, Nodes: 2},
	}})
	for _, gpipe := range []bool{false, true} {
		gpipe := gpipe
		t.Run(fmt.Sprintf("gpipe=%v", gpipe), func(t *testing.T) {
			t.Parallel()
			opt := DefaultOptions(Holmes)
			opt.GPipeSchedule = gpipe
			topos, groups := []*topology.Topology{topology.HybridEnv(4), sixes}, foldGroups
			if gpipe {
				topos, groups = topos[1:], groups[:1]
			}
			halted, completed := 0, 0
			for _, c := range foldCells(topos, groups, Holmes, &opt) {
				if c.cfg.TensorSize*c.cfg.TensorSize <= c.cfg.Topo.GPUsPerNode {
					continue // nothing folds
				}
				f, u, ok := runFolds(c.cfg, nil)
				if !ok || u.err != nil {
					continue
				}
				if d := foldDiff(f, u); d != "" {
					t.Errorf("%s: %s", c.label, d)
					continue
				}
				for _, k := range []float64{0.7, 0.8, 0.9, 1, 1.1, 1.2} {
					d := u.rep.IterSeconds * k
					fb, ub, _ := runFolds(c.cfg, func() *Deadline { return NewDeadline(d) })
					if ub.out.halted {
						halted++
					} else {
						completed++
					}
					if diff := foldDiff(fb, ub); diff != "" {
						t.Errorf("%s at %.2f× its time: %s", c.label, k, diff)
					}
					if fb.out.LostTo(d) != ub.out.LostTo(d) {
						t.Errorf("%s at %.2f× its time: lost %v, oracle %v", c.label, k, fb.out.LostTo(d), ub.out.LostTo(d))
					}
				}
			}
			if halted == 0 || completed == 0 {
				t.Fatalf("%d bounded runs halted and %d completed: both outcomes must occur", halted, completed)
			}
		})
	}
}

// TestTwinFoldPeakRounding pins a bounded run whose folded projection
// peak differs from its oracle's in the last bit: on this shape twins'
// hops and ring edges are admitted at one instant on one RDMA link, so
// Link.Admitted sums their bytes in another order (see peakRounding).
// The run must still stop alike and lose alike.
func TestTwinFoldPeakRounding(t *testing.T) {
	shapes, err := topogen.Shapes(202, 93)
	if err != nil {
		t.Fatal(err)
	}
	sh := shapes[92]
	opt := DefaultOptions(Holmes)
	opt.OverlappedOptimizer = true
	cfg := Config{
		Topo: sh.Topo, Spec: model.Group(sh.Group).Spec,
		TensorSize: 4, PipelineSize: 2, Framework: Holmes, Opt: &opt,
	}
	_, u, ok := runFolds(cfg, nil)
	if !ok || u.err != nil {
		t.Fatalf("%s: cell does not run: %v", sh.Label, u.err)
	}
	d := 0.95 * u.rep.IterSeconds
	fb, ub, _ := runFolds(cfg, func() *Deadline { return NewDeadline(d) })
	if diff := foldDiff(fb, ub); diff != "" {
		t.Fatalf("%s: %s", sh.Label, diff)
	}
	if fb.out.LostTo(d) != ub.out.LostTo(d) {
		t.Fatalf("%s: lost %v, oracle %v", sh.Label, fb.out.LostTo(d), ub.out.LostTo(d))
	}
	t.Logf("%s: peak %v, oracle %v", sh.Label, fb.out.peak, ub.out.peak)
}

// TestTwinClassesReplayTheirRepresentative asserts the class rule against
// the simulator's own inputs: every pipeline's routes and stagger equal
// those of the pipeline standing for it, every data-parallel group's
// ring edges and payloads equal its representative's, and the weights
// count the members. (Compute times are per stage, shared by every
// pipeline.)
func TestTwinClassesReplayTheirRepresentative(t *testing.T) {
	for _, c := range foldCells(foldShapes(), []int{1}, Holmes, nil) {
		it, err := Prepare(c.cfg)
		if err != nil {
			continue
		}
		tt, ppn := it.deg.T, it.pipesPerNode
		rep := func(i int) int { return i - i%tt + (i%tt)%ppn } // same tensor group, lowest of its slot
		members := map[int]int{}
		for g, pg := range it.world.PPGroups {
			r := rep(g)
			members[r]++
			if it.twins(r%tt) == 0 {
				t.Fatalf("%s: pipeline %d stands for pipeline %d but folds away", c.label, r, g)
			}
			if !reflect.DeepEqual(it.pipeRoutes(g), it.pipeRoutes(r)) {
				t.Errorf("%s: pipeline %d's routes differ from its representative %d's", c.label, g, r)
			}
			if it.stagger(pg) != it.stagger(it.world.PPGroups[r]) {
				t.Errorf("%s: pipeline %d starts apart from its representative %d", c.label, g, r)
			}
		}
		for r, n := range members {
			if w := it.twins(r % tt); w != n {
				t.Errorf("%s: pipeline %d stands for %d twins, weight %d", c.label, r, n, w)
			}
		}
		rings := 0
		for row, g := range it.world.DPGroups {
			r := rep(row)
			if w := it.twins(row % tt); (w > 0) != (r == row) {
				t.Errorf("%s: data-parallel row %d has weight %d, representative %d", c.label, row, w, r)
			}
			if r == row {
				rings++
			}
			if !reflect.DeepEqual(it.ringRoutes(row), it.ringRoutes(r)) {
				t.Errorf("%s: data-parallel row %d's ring differs from row %d's", c.label, row, r)
			}
			s, sr := it.assign.StageOf(g.Ranks[0]), it.assign.StageOf(it.world.DPGroups[r].Ranks[0])
			if s != sr {
				t.Errorf("%s: data-parallel row %d (stage %d) folds into row %d (stage %d)", c.label, row, s, r, sr)
			}
		}
		if pipes, groups := it.simulated(); pipes != len(members) || groups != rings {
			t.Errorf("%s: simulates %d pipelines and %d groups, want %d and %d", c.label, pipes, groups, len(members), rings)
		}
	}
}

// TestTwinFoldOnlyOnPristineFastRuns: a run under a scenario, or on an
// engine in oracle mode, simulates every twin and fires exactly the
// events of the unfolded run, while the folded run fires fewer for the
// same answer.
func TestTwinFoldOnlyOnPristineFastRuns(t *testing.T) {
	cfg := Config{Topo: topology.HybridEnv(4), Spec: model.Group(1).Spec, TensorSize: 8, PipelineSize: 2, Framework: Holmes}
	folded, unfolded, ok := runFolds(cfg, nil)
	if !ok || folded.err != nil || unfolded.err != nil {
		t.Fatalf("cell does not run: %v %v", folded.err, unfolded.err)
	}
	if folded.out.Events >= unfolded.out.Events {
		t.Fatalf("t = 8 folds nothing: %d events, unfolded %d", folded.out.Events, unfolded.out.Events)
	}
	// A scenario whose one event falls after the iteration changes no
	// answer, yet it stops the fold.
	late := cfg
	late.Scenario = &scenario.Scenario{Events: []scenario.Event{{At: 1e6, Kind: scenario.DegradeNIC, Node: 0, Factor: 0.5, Class: scenario.ClassRDMA}}}
	oracle := cfg
	oracle.Engine = engine.New(engine.Config{FullRecompute: true})
	for name, c := range map[string]Config{"scenario": late, "oracle engine": oracle} {
		it, err := Prepare(c)
		if err != nil {
			t.Fatal(err)
		}
		if it.fold {
			t.Errorf("%s: the run folds", name)
		}
		rep, out, err := it.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Events != unfolded.out.Events || out.Flows != unfolded.out.Flows {
			t.Errorf("%s: %d events and %d flows, unfolded %d and %d", name, out.Events, out.Flows, unfolded.out.Events, unfolded.out.Flows)
		}
		if rep.IterSeconds != folded.rep.IterSeconds {
			t.Errorf("%s: %v s, folded %v s", name, rep.IterSeconds, folded.rep.IterSeconds)
		}
	}
}

// FuzzTwinFold draws a generated shape and a cell on it — tensor degree,
// pipeline degree, schedule and optimizer overlap — from the fuzzer's
// input and holds the folded run against its unfolded oracle.
func FuzzTwinFold(f *testing.F) {
	f.Add(int64(3), uint8(3), uint8(1), false, true)   // t = 8, p = 5
	f.Add(int64(4), uint8(2), uint8(2), false, false)  // t = 4, p = 3
	f.Add(int64(5), uint8(3), uint8(1), true, true)    // GPipe, t = 8, p = 3
	f.Add(int64(11), uint8(2), uint8(1), true, false)  // GPipe, t = 4, p = 2
	f.Add(int64(11), uint8(3), uint8(1), false, false) // t = 8, p = 2
	f.Fuzz(func(t *testing.T, seed int64, ti, pi uint8, gpipe, overlap bool) {
		shapes, err := topogen.Shapes(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sh := shapes[0]
		tiles := tensorDegrees(sh.Topo.GPUsPerNode)
		tile := tiles[int(ti)%len(tiles)]
		var ps []int // the pipeline degrees up to 8 that tile the shape
		for p := 1; p <= 8; p++ {
			if sh.Topo.NumDevices()%(tile*p) == 0 {
				ps = append(ps, p)
			}
		}
		p := ps[int(pi)%len(ps)]
		opt := DefaultOptions(Holmes)
		opt.GPipeSchedule, opt.OverlappedOptimizer = gpipe, overlap
		folded, unfolded, ok := runFolds(Config{
			Topo: sh.Topo, Spec: model.Group(sh.Group).Spec,
			TensorSize: tile, PipelineSize: p,
			Framework: Holmes, Opt: &opt,
		}, nil)
		if !ok {
			return
		}
		if d := foldDiff(folded, unfolded); d != "" {
			t.Fatalf("%s t=%d p=%d gpipe=%v overlap=%v: %s", sh.Label, tile, p, gpipe, overlap, d)
		}
	})
}
