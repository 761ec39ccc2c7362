package trainer

import (
	"math"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

func simulate(t *testing.T, topo *topology.Topology, groupID, p int, fw Framework, opt *Options) Report {
	t.Helper()
	pg := model.Group(groupID)
	rep, err := Simulate(Config{
		Topo: topo, Spec: pg.Spec,
		TensorSize: pg.TensorSize, PipelineSize: p,
		Framework: fw, Opt: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSimulateHandsEngineOracleToFabric: the engine's FullRecompute knob
// must reach the iteration's fabric. The two rebalancers produce
// bit-identical reports, so only the parameters the fabric is built with
// show which one ran.
func TestSimulateHandsEngineOracleToFabric(t *testing.T) {
	orig := newFabric
	t.Cleanup(func() { newFabric = orig })
	var got []bool
	newFabric = func(eng *sim.Engine, topo *topology.Topology, p netsim.Params) *netsim.Fabric {
		got = append(got, p.FullRecompute)
		return orig(eng, topo, p)
	}
	pg := model.Group(1)
	for _, oracle := range []bool{false, true} {
		got = got[:0]
		_, err := Simulate(Config{
			Topo: topology.IBEnv(2), Spec: pg.Spec,
			TensorSize: pg.TensorSize, PipelineSize: 2, Framework: Holmes,
			Engine: engine.New(engine.Config{FullRecompute: oracle}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != oracle {
			t.Fatalf("engine FullRecompute=%v: fabrics built with FullRecompute %v", oracle, got)
		}
	}
}

func TestSimulateTable1Calibration(t *testing.T) {
	base := BaseOptions()
	targets := map[topology.EnvName]float64{
		topology.EnvInfiniBand: 197,
		topology.EnvRoCE:       160,
		topology.EnvEthernet:   122,
		topology.EnvHybrid:     149,
	}
	got := map[topology.EnvName]float64{}
	for env, want := range targets {
		topo, err := topology.Env(env, 4)
		if err != nil {
			t.Fatal(err)
		}
		rep := simulate(t, topo, 1, 2, Holmes, &base)
		got[env] = rep.TFLOPS
		if rel := math.Abs(rep.TFLOPS-want) / want; rel > 0.15 {
			t.Errorf("%s: %.1f TFLOPS vs paper %.0f (%.0f%%)", env, rep.TFLOPS, want, rel*100)
		}
	}
	if !(got[topology.EnvInfiniBand] > got[topology.EnvRoCE] &&
		got[topology.EnvRoCE] > got[topology.EnvHybrid] &&
		got[topology.EnvHybrid] > got[topology.EnvEthernet]) {
		t.Fatalf("environment ordering violated: %v", got)
	}
}

func TestThroughputAndTFLOPSConsistent(t *testing.T) {
	// TFLOPS and Throughput must be two views of the same iteration time.
	rep := simulate(t, topology.IBEnv(4), 1, 2, Holmes, nil)
	spec := model.Group(1).Spec
	n := 32.0
	implied := spec.FLOPsPerIteration() / (float64(spec.GlobalBatch) / rep.Throughput) / n / 1e12
	if math.Abs(implied-rep.TFLOPS)/rep.TFLOPS > 1e-9 {
		t.Fatalf("metrics inconsistent: %.3f vs %.3f", implied, rep.TFLOPS)
	}
}

func TestMoreNodesMoreThroughputLowerTFLOPS(t *testing.T) {
	base := BaseOptions()
	t4 := simulate(t, topology.IBEnv(4), 1, 2, Holmes, &base)
	t8 := simulate(t, topology.IBEnv(8), 1, 2, Holmes, &base)
	if t8.Throughput <= t4.Throughput {
		t.Fatalf("8 nodes (%.1f samples/s) must beat 4 nodes (%.1f)", t8.Throughput, t4.Throughput)
	}
	// Fixed global batch over more GPUs: less work per GPU, bigger
	// communication share, so per-GPU TFLOPS drops (Table 3's trend).
	if t8.TFLOPS >= t4.TFLOPS {
		t.Fatalf("per-GPU TFLOPS should fall with scale at fixed batch: %.1f vs %.1f", t8.TFLOPS, t4.TFLOPS)
	}
}

func TestOverlapBeatsSerialOnSlowFabric(t *testing.T) {
	topo := topology.HybridEnv(8)
	serial := BaseOptions()
	overlap := BaseOptions()
	overlap.OverlappedOptimizer = true
	s := simulate(t, topo, 3, 4, Holmes, &serial)
	o := simulate(t, topo, 3, 4, Holmes, &overlap)
	if o.Throughput <= s.Throughput {
		t.Fatalf("overlapped optimizer must help: %.2f vs %.2f samples/s", o.Throughput, s.Throughput)
	}
}

func TestFrameworkOrderingOnHybrid(t *testing.T) {
	topo := topology.HybridEnv(8)
	var prev float64
	for i, fw := range AllFrameworks { // DeepSpeed, LM, LLaMA, Holmes
		rep := simulate(t, topo, 3, 4, fw, nil)
		if i > 0 && rep.Throughput <= prev {
			t.Fatalf("%s (%.2f) should beat its predecessor (%.2f)", fw, rep.Throughput, prev)
		}
		prev = rep.Throughput
	}
}

func TestUnifiedSelectionHurtsOnlyOnHybrid(t *testing.T) {
	// On a homogeneous IB cluster Megatron-LM and Holmes-base are close;
	// on hybrid the unified (Ethernet) fallback costs Megatron-LM dearly.
	ib := topology.IBEnv(4)
	base := BaseOptions()
	holmesIB := simulate(t, ib, 1, 2, Holmes, &base)
	lmIB := simulate(t, ib, 1, 2, MegatronLM, nil)
	if gap := holmesIB.Throughput / lmIB.Throughput; gap > 1.1 {
		t.Fatalf("homogeneous IB gap %.2f should be small", gap)
	}
	hy := topology.HybridEnv(4)
	holmesHy := simulate(t, hy, 1, 2, Holmes, &base)
	lmHy := simulate(t, hy, 1, 2, MegatronLM, nil)
	if gap := holmesHy.Throughput / lmHy.Throughput; gap < 1.1 {
		t.Fatalf("hybrid gap %.2f should be large (auto NIC selection)", gap)
	}
}

func TestGPipeAblationSlower(t *testing.T) {
	topo := topology.HybridEnv(4)
	f1b := DefaultOptions(Holmes)
	gp := DefaultOptions(Holmes)
	gp.GPipeSchedule = true
	a := simulate(t, topo, 1, 2, Holmes, &f1b)
	b := simulate(t, topo, 1, 2, Holmes, &gp)
	// Same bubble structure: GPipe should be within a few percent, never
	// dramatically faster.
	if b.Throughput > a.Throughput*1.05 {
		t.Fatalf("GPipe (%.2f) should not beat 1F1B (%.2f) by >5%%", b.Throughput, a.Throughput)
	}
}

func TestReduceScatterMetricPopulatedInSerialMode(t *testing.T) {
	base := BaseOptions()
	rep := simulate(t, topology.RoCEEnv(4), 1, 2, Holmes, &base)
	if rep.ReduceScatterSeconds <= 0 {
		t.Fatal("reduce-scatter time not measured")
	}
	// Figure 4 shape: Ethernet RS must dwarf InfiniBand RS.
	ib := simulate(t, topology.IBEnv(4), 1, 2, Holmes, &base)
	eth := simulate(t, topology.EthernetEnv(4), 1, 2, Holmes, &base)
	if !(eth.ReduceScatterSeconds > rep.ReduceScatterSeconds &&
		rep.ReduceScatterSeconds > ib.ReduceScatterSeconds) {
		t.Fatalf("RS ordering violated: ib=%.3f roce=%.3f eth=%.3f",
			ib.ReduceScatterSeconds, rep.ReduceScatterSeconds, eth.ReduceScatterSeconds)
	}
}

func TestSimulateErrors(t *testing.T) {
	pg := model.Group(1)
	topo := topology.IBEnv(4)
	cases := []Config{
		{Spec: pg.Spec, TensorSize: 1, PipelineSize: 2},                  // nil topo
		{Topo: topo, Spec: pg.Spec, TensorSize: 0, PipelineSize: 2},      // bad t
		{Topo: topo, Spec: pg.Spec, TensorSize: 1, PipelineSize: 5},      // 5 does not tile 32
		{Topo: topo, Spec: model.Spec{}, TensorSize: 1, PipelineSize: 2}, // invalid spec
		{Topo: topo, Spec: pg.Spec, TensorSize: 1, PipelineSize: 32},     // p > layers? p=32 tiles 32 but d=1, B=768, m huge: fine? p>nodes though
	}
	for i, cfg := range cases {
		cfg.Framework = Holmes
		if _, err := Simulate(cfg); err == nil && i < 4 {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestForcedPartitionRoundTrip(t *testing.T) {
	opt := BaseOptions()
	opt.ForcedPartition = []int{20, 10}
	rep := simulate(t, topology.IBEnv(4), 1, 2, Holmes, &opt)
	if rep.Partition.Layers[0] != 20 || rep.Partition.Layers[1] != 10 {
		t.Fatalf("forced partition ignored: %v", rep.Partition)
	}
	bad := BaseOptions()
	bad.ForcedPartition = []int{20, 20}
	pg := model.Group(1)
	if _, err := Simulate(Config{Topo: topology.IBEnv(4), Spec: pg.Spec, TensorSize: 1, PipelineSize: 2, Framework: Holmes, Opt: &bad}); err == nil {
		t.Fatal("invalid forced partition accepted")
	}
}

func TestEnvLabel(t *testing.T) {
	if EnvLabel(topology.HybridEnv(4)) != "Hybrid" {
		t.Fatal("hybrid label wrong")
	}
	if EnvLabel(topology.IBEnv(2)) != "InfiniBand" {
		t.Fatal("IB label wrong")
	}
	two := topology.MustBuild(topology.Spec{Clusters: []topology.ClusterSpec{
		{NIC: topology.RoCE, Nodes: 1}, {NIC: topology.RoCE, Nodes: 1},
	}})
	if EnvLabel(two) != "RoCE" {
		t.Fatal("homogeneous multi-cluster label wrong")
	}
}

// A simulation's allocations pay for its world — executors, rings, flow
// and event records sized to the peak in flight — not for its events:
// quadrupling the global batch quadruples the micro-batches, and with
// them every flow and event, while the allocation count stays put.
func TestSimulateAllocsIndependentOfBatch(t *testing.T) {
	topo := topology.HybridEnv(4)
	pg := model.Group(1)
	allocs := func(scale int) float64 {
		spec := pg.Spec
		spec.GlobalBatch *= scale
		cfg := Config{Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 2, Framework: Holmes}
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, quad := allocs(1), allocs(4)
	if math.Abs(quad-base) >= 0.02*base {
		t.Fatalf("Simulate allocates %v at 1x global batch and %v at 4x: more than 2%% apart", base, quad)
	}
}
