package scenario

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

// Regression for the Until-overrun bug: a greedy background chunk
// admitted just before the deadline used to drain in full, perturbing
// the fabric arbitrarily far past the scripted window. Now the in-flight
// chunk is aborted at Until, so a probe flow started just after the
// deadline sees a pristine fabric.
func TestStreamGreedyAbortsAtUntil(t *testing.T) {
	const until = 0.01
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	sc := &Scenario{Events: []Event{{
		Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Class: ClassRDMA, Until: until,
	}}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	// A greedy stream saturates the node-0 RDMA links with back-to-back
	// 64 MiB chunks, so one is always mid-flight when the deadline hits.
	probeBytes := 1e8
	var start, end sim.Time
	eng.At(until+1e-4, func() {
		start = eng.Now()
		fab.StartFlow(fab.Route(0, 8, netsim.RDMA), probeBytes, func() { end = eng.Now() })
	})
	eng.Run()
	lone := fab.TransferTime(0, 8, probeBytes, netsim.RDMA)
	if got := end - start; math.Abs(got-lone) > 1e-9 {
		t.Fatalf("probe after the deadline took %v, want lone-flow %v — the stream leaked past Until", got, lone)
	}
}

// Regression, rate-capped arm: the final chunk used to carry a full
// bgChunkSeconds of offered bytes even when the deadline was nearer,
// stretching the scripted load past Until. It is now clamped to
// rate*(Until-Now()), ending exactly at the deadline on an uncongested
// path.
func TestStreamRateCappedClampsFinalChunk(t *testing.T) {
	const until = 0.12 // 2 full 50 ms chunks plus a 20 ms remainder
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	sc := &Scenario{Events: []Event{{
		Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Class: ClassRDMA,
		Gbps: 400, Until: until,
	}}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	probeBytes := 1e8
	var start, end sim.Time
	eng.At(until+1e-4, func() {
		start = eng.Now()
		fab.StartFlow(fab.Route(0, 8, netsim.RDMA), probeBytes, func() { end = eng.Now() })
	})
	eng.Run()
	lone := fab.TransferTime(0, 8, probeBytes, netsim.RDMA)
	if got := end - start; math.Abs(got-lone) > 1e-9 {
		t.Fatalf("probe after the deadline took %v, want lone-flow %v — the final chunk overran Until", got, lone)
	}
}

func TestFlapLinkDutyCycle(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	baseOut, baseIn, err := fab.NodeCaps(0, netsim.RDMA)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scenario{Events: []Event{{
		Kind: FlapLink, At: 0.01, Node: 0, Class: ClassRDMA,
		DownMs: 10, UpMs: 10, Until: 0.05,
	}}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	probe := func(at float64, wantFactor float64) {
		t.Helper()
		eng.RunUntil(at)
		out, in, _ := fab.NodeCaps(0, netsim.RDMA)
		if out != baseOut*wantFactor || in != baseIn*wantFactor {
			t.Fatalf("t=%v: caps (%v, %v), want factor %v of (%v, %v)", at, out, in, wantFactor, baseOut, baseIn)
		}
	}
	probe(0.005, 1)                   // before the flap
	probe(0.015, netsim.FailResidual) // first down phase
	probe(0.025, 1)                   // first up phase
	probe(0.035, netsim.FailResidual) // second down phase
	probe(0.045, 1)                   // second up phase
	probe(0.06, 1)                    // past Until
}

func TestPartitionCutsAndHealsTrunk(t *testing.T) {
	topo := topology.HybridEnv(4)
	p := netsim.DefaultParams()
	p.InterClusterGbps = 20
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, p)
	base, ok := fab.TrunkBandwidth(0, 1)
	if !ok {
		t.Fatal("no trunk")
	}
	sc := &Scenario{Events: []Event{{Kind: Partition, At: 1, Cluster: 1, Peer: 0, Until: 2}}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1.5)
	if got, _ := fab.TrunkBandwidth(0, 1); got != base*netsim.FailResidual {
		t.Fatalf("partitioned trunk bw %v, want %v", got, base*netsim.FailResidual)
	}
	eng.RunUntil(2.5)
	if got, _ := fab.TrunkBandwidth(0, 1); got != base {
		t.Fatalf("healed trunk bw %v, want %v", got, base)
	}
}

func TestPartitionRequiresTrunk(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams()) // trunkless
	sc := &Scenario{Events: []Event{{Kind: Partition, At: 1, Cluster: 0, Peer: 1}}}
	if _, err := sc.Bind(eng, fab); err == nil {
		t.Fatal("partition bound to a trunkless fabric")
	}
}

func TestStragglerFailClusterRestore(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	base0out, base0in, _ := fab.NodeCaps(0, netsim.RDMA)
	base2out, _, _ := fab.NodeCaps(2, netsim.Ether)
	sc := &Scenario{Events: []Event{
		{Kind: Straggler, At: 1, Node: 0, Factor: 0.5},
		{Kind: FailCluster, At: 2, Cluster: 1},
		{Kind: RestoreNode, At: 3, Node: 0},
	}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1.5)
	if out, in, _ := fab.NodeCaps(0, netsim.RDMA); out != base0out*0.5 || in != base0in*0.5 {
		t.Fatalf("straggler caps (%v, %v), want half of (%v, %v)", out, in, base0out, base0in)
	}
	eng.RunUntil(2.5)
	if out, _, _ := fab.NodeCaps(2, netsim.Ether); out != base2out*netsim.FailResidual {
		t.Fatalf("failed-cluster node eth cap %v, want residual of %v", out, base2out)
	}
	eng.RunUntil(3.5)
	if out, in, _ := fab.NodeCaps(0, netsim.RDMA); out != base0out || in != base0in {
		t.Fatalf("restored straggler caps (%v, %v), want (%v, %v)", out, in, base0out, base0in)
	}
	// fail_cluster is permanent: the restore did not resurrect cluster 1.
	if out, _, _ := fab.NodeCaps(2, netsim.Ether); out != base2out*netsim.FailResidual {
		t.Fatal("restore_node resurrected a failed cluster")
	}
}

func TestImpairmentEventsDriveFabric(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	sc := &Scenario{Events: []Event{
		{Kind: Loss, At: 1, Node: 0, Class: ClassEther, Pct: 10, Direction: "out", Until: 2},
		{Kind: Delay, At: 1, Node: 0, Class: ClassEther, DelayMs: 5},
		{Kind: Corrupt, At: 1.5, Node: 0, Class: ClassEther, Pct: 10, Direction: "out"},
	}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	closeTo := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	eng.RunUntil(1.2)
	imp := fab.ImpairmentOf(0, netsim.Ether, false)
	if !closeTo(imp.Efficiency, 0.9) || !closeTo(imp.ExtraLatency, 0.005) {
		t.Fatalf("t=1.2 outbound impairment %+v, want eff 0.9 delay 5ms", imp)
	}
	if in := fab.ImpairmentOf(0, netsim.Ether, true); !closeTo(in.ExtraLatency, 0.005) || in.Efficiency != 0 {
		t.Fatalf("t=1.2 inbound impairment %+v, want delay only", in)
	}
	eng.RunUntil(1.7)
	if imp = fab.ImpairmentOf(0, netsim.Ether, false); !closeTo(imp.Efficiency, 0.81) {
		t.Fatalf("t=1.7 eff %v, want loss×corrupt 0.81", imp.Efficiency)
	}
	eng.RunUntil(2.5)
	imp = fab.ImpairmentOf(0, netsim.Ether, false)
	if !closeTo(imp.Efficiency, 0.9) || !closeTo(imp.ExtraLatency, 0.005) {
		t.Fatalf("t=2.5 impairment %+v, want corrupt 0.9 + delay after loss expiry", imp)
	}
}

// Scenario-owned jitter seed: replays with the same seed are
// bit-identical, different seeds diverge.
func TestScenarioSeedDrivesJitter(t *testing.T) {
	run := func(seed int64) []sim.Time {
		topo := topology.IBEnv(2)
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, netsim.DefaultParams())
		sc := &Scenario{Seed: seed, Events: []Event{
			{Kind: Jitter, At: 0, Node: 0, Class: ClassRDMA, JitterMs: 0.01, Dist: "normal"},
		}}
		if _, err := sc.Bind(eng, fab); err != nil {
			t.Fatal(err)
		}
		var ends []sim.Time
		// Start the flows after the jitter event has installed itself.
		eng.At(0.001, func() {
			for i := 0; i < 6; i++ {
				fab.StartFlow(fab.Route(0, 8, netsim.RDMA), 1e7, func() { ends = append(ends, eng.Now()) })
			}
		})
		eng.Run()
		return ends
	}
	a, b, c := run(7), run(7), run(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at flow %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different scenario seeds produced identical jitter")
	}
}

// The two-views-agree invariant, as a property test: bind a random
// timeline to a live fabric, advance to random instants, and the
// fabric's actual link capacities must equal the StateAt fold — exactly,
// since the runtime pushes state recomputed by the very same fold.
func TestTimelineFabricStateAgreeProperty(t *testing.T) {
	classes := []netsim.Class{netsim.Intra, netsim.RDMA, netsim.Ether}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo := topology.HybridEnv(4)
		p := netsim.DefaultParams()
		p.InterClusterGbps = 20
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, p)
		nodes := topo.NumNodes()
		base := make(map[capKey]savedCaps)
		for n := 0; n < nodes; n++ {
			for _, cl := range classes {
				out, in, _ := fab.NodeCaps(n, cl)
				base[capKey{node: n, class: cl}] = savedCaps{out: out, in: in}
			}
		}
		baseTrunk, _ := fab.TrunkBandwidth(0, 1)
		sc := randomCapacityStorm(rng, nodes)
		rt, err := sc.Bind(eng, fab)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probes := make([]float64, 12)
		for i := range probes {
			probes[i] = rng.Float64() * 6
		}
		sort.Float64s(probes)
		for _, at := range probes {
			eng.RunUntil(at)
			st := sc.StateAt(at)
			for n := 0; n < nodes; n++ {
				ns, ok := st.Nodes[n]
				if !ok {
					ns = pristineNode()
				}
				down := ns.Failed || st.FailedClusters[topo.Node(n).Cluster]
				for _, cl := range classes {
					f := ns.Factor(cl)
					if down && cl != netsim.Intra {
						f *= netsim.FailResidual
					}
					b := base[capKey{node: n, class: cl}]
					out, in, _ := fab.NodeCaps(n, cl)
					if out != b.out*f || in != b.in*f {
						t.Fatalf("seed %d t=%v node %d %v: fabric caps (%v, %v), StateAt fold wants (%v, %v)\nscenario: %+v",
							seed, at, n, cl, out, in, b.out*f, b.in*f, sc.Events)
					}
				}
			}
			wantTrunk := baseTrunk
			if st.Partitioned(0, 1) {
				wantTrunk = baseTrunk * netsim.FailResidual
			}
			if got, _ := fab.TrunkBandwidth(0, 1); got != wantTrunk {
				t.Fatalf("seed %d t=%v: trunk bw %v, StateAt fold wants %v\nscenario: %+v",
					seed, at, got, wantTrunk, sc.Events)
			}
		}
		rt.Stop()
	}
}

// randomCapacityStorm scripts a random mix of every capacity-affecting
// kind (plus impairment noise, which must not move capacities).
func randomCapacityStorm(rng *rand.Rand, nodes int) *Scenario {
	classes := []Class{ClassRDMA, ClassEther, ClassIntra}
	n := 3 + rng.Intn(8)
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		at := rng.Float64() * 5
		node := rng.Intn(nodes)
		switch rng.Intn(9) {
		case 0:
			evs = append(evs, Event{Kind: DegradeNIC, At: at, Node: node,
				Class: classes[rng.Intn(len(classes))], Factor: 0.1 + 0.9*rng.Float64()})
		case 1:
			evs = append(evs, Event{Kind: FailNode, At: at, Node: node})
		case 2:
			evs = append(evs, Event{Kind: RestoreNode, At: at, Node: node})
		case 3:
			evs = append(evs, Event{Kind: Straggler, At: at, Node: node, Factor: 0.3 + 0.7*rng.Float64()})
		case 4:
			evs = append(evs, Event{Kind: FlapLink, At: at, Node: node,
				Class:  classes[rng.Intn(2)],
				DownMs: 5 + 45*rng.Float64(), UpMs: 5 + 45*rng.Float64(),
				Until: at + 0.2 + rng.Float64()})
		case 5:
			ev := Event{Kind: Partition, At: at, Cluster: 0, Peer: 1}
			if rng.Intn(2) == 0 {
				ev.Until = at + 0.5 + rng.Float64()
			}
			evs = append(evs, ev)
		case 6:
			evs = append(evs, Event{Kind: FailCluster, At: at, Cluster: rng.Intn(2)})
		case 7:
			evs = append(evs, Event{Kind: Loss, At: at, Node: node, Pct: 1 + 50*rng.Float64(),
				Until: at + rng.Float64()})
		default:
			evs = append(evs, Event{Kind: Delay, At: at, Node: node, DelayMs: 1 + 10*rng.Float64()})
		}
	}
	return &Scenario{Name: "storm", Events: evs}
}
