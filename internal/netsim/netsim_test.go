package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

func newFab(t *testing.T, topo *topology.Topology) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(eng, topo, DefaultParams())
}

func TestEffectiveClass(t *testing.T) {
	topo := topology.HybridEnv(4) // 2 IB nodes + 2 RoCE nodes, 8 GPUs each
	_, fab := newFab(t, topo)
	// Same node -> Intra regardless of the request.
	if got := fab.EffectiveClass(0, 1, Ether); got != Intra {
		t.Fatalf("same-node class = %v, want Intra", got)
	}
	// Same cluster, different nodes, RDMA wanted -> RDMA.
	if got := fab.EffectiveClass(0, 8, RDMA); got != RDMA {
		t.Fatalf("intra-cluster class = %v, want RDMA", got)
	}
	// Cross-cluster RDMA request degrades to Ether (IB vs RoCE incompatible).
	if got := fab.EffectiveClass(0, 16, RDMA); got != Ether {
		t.Fatalf("cross-cluster class = %v, want Ether", got)
	}
	// Explicit Ether stays Ether across nodes.
	if got := fab.EffectiveClass(0, 8, Ether); got != Ether {
		t.Fatalf("ether class = %v, want Ether", got)
	}
}

func TestEthernetOnlyDegradesRDMA(t *testing.T) {
	topo := topology.EthernetEnv(2)
	_, fab := newFab(t, topo)
	if got := fab.EffectiveClass(0, 8, RDMA); got != Ether {
		t.Fatalf("RDMA on ethernet cluster = %v, want Ether", got)
	}
}

func TestSingleFlowDuration(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	p := DefaultParams()
	// IB node: 4×200 Gb/s ×0.93 = 93 GB/s aggregate.
	wantBW := 800.0 / 8 * 1e9 * p.IBEff
	bytes := 1e9
	var done sim.Time = -1
	fab.StartFlow(fab.Route(0, 8, RDMA), bytes, func() { done = eng.Now() })
	eng.Run()
	want := p.IBLatency + bytes/wantBW
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("flow took %v, want %v", done, want)
	}
	// Its admission's pass counts; its departure's region holds no flow.
	if fab.FlowsStarted() != 1 || fab.Rebalances() != 1 {
		t.Fatalf("counted %d flows and %d rebalances, want 1 and 1", fab.FlowsStarted(), fab.Rebalances())
	}
}

func TestTransferTimeMatchesLoneFlow(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng, _ := newFab(t, topo)
	cases := []struct {
		src, dst int
		class    Class
	}{
		{0, 1, Intra},  // NVLink
		{0, 8, RDMA},   // IB
		{16, 24, RDMA}, // RoCE
		{0, 16, RDMA},  // degrades to cross-cluster Ether
		{0, 8, Ether},  // intra-cluster Ether
	}
	for _, tc := range cases {
		eng.Reset()
		fab2 := New(eng, topo, DefaultParams())
		var done sim.Time = -1
		fab2.StartFlow(fab2.Route(tc.src, tc.dst, tc.class), 5e8, func() { done = eng.Now() })
		eng.Run()
		want := fab2.TransferTime(tc.src, tc.dst, 5e8, tc.class)
		if math.Abs(done-want) > 1e-9 {
			t.Fatalf("%d->%d %v: flow %v, analytic %v", tc.src, tc.dst, tc.class, done, want)
		}
	}
}

func TestFairSharingTwoFlows(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	// Two flows out of node 0 to node 1 share the node-0 RDMA out link:
	// each should get half the bandwidth, so equal-size flows finish
	// together at ~2× the lone-flow time.
	bytes := 1e9
	var t1, t2 sim.Time
	fab.StartFlow(fab.Route(0, 8, RDMA), bytes, func() { t1 = eng.Now() })
	fab.StartFlow(fab.Route(1, 9, RDMA), bytes, func() { t2 = eng.Now() })
	eng.Run()
	lone := fab.TransferTime(0, 8, bytes, RDMA) - fab.Latency(0, 8, RDMA)
	if math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("equal flows finished apart: %v vs %v", t1, t2)
	}
	want := 2 * lone
	if math.Abs(t1-want)/want > 0.01 {
		t.Fatalf("shared flow took %v, want ~%v", t1, want)
	}
}

func TestShortFlowFinishesFirstAndLongSpeedsUp(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	var shortDone, longDone sim.Time
	fab.StartFlow(fab.Route(0, 8, RDMA), 1e8, func() { shortDone = eng.Now() })
	fab.StartFlow(fab.Route(1, 9, RDMA), 1e9, func() { longDone = eng.Now() })
	eng.Run()
	if shortDone >= longDone {
		t.Fatalf("short flow (%v) must beat long flow (%v)", shortDone, longDone)
	}
	// The long flow gets the full link after the short one leaves, so it
	// must beat the always-shared bound (1e9 at half rate) and lose to the
	// never-shared bound.
	bw := fab.PairBandwidth(1, 9, RDMA)
	neverShared := 1e9 / bw
	alwaysShared := 1e9 / (bw / 2)
	if longDone <= neverShared || longDone >= alwaysShared {
		t.Fatalf("long flow %v outside (%v, %v)", longDone, neverShared, alwaysShared)
	}
}

func TestCrossClusterUsesEthernetBandwidth(t *testing.T) {
	topo := topology.HybridEnv(4)
	_, fab := newFab(t, topo)
	rdmaBW := fab.PairBandwidth(0, 8, RDMA)
	crossBW := fab.PairBandwidth(0, 16, RDMA) // degrades to Ether
	if crossBW >= rdmaBW {
		t.Fatalf("cross-cluster bw %v must be far below RDMA bw %v", crossBW, rdmaBW)
	}
	p := DefaultParams()
	wantEth := 25.0 / 8 * 1e9 * p.EthEff
	if math.Abs(crossBW-wantEth) > 1 {
		t.Fatalf("cross-cluster bw = %v, want %v", crossBW, wantEth)
	}
}

func TestRoCEBandwidthBelowIB(t *testing.T) {
	_, fabIB := newFab(t, topology.IBEnv(2))
	_, fabRo := newFab(t, topology.RoCEEnv(2))
	ib := fabIB.PairBandwidth(0, 8, RDMA)
	ro := fabRo.PairBandwidth(0, 8, RDMA)
	if ro >= ib {
		t.Fatalf("RoCE pair bw %v must be below IB %v (2 vs 4 NICs and lower efficiency)", ro, ib)
	}
	if ratio := ro / ib; ratio > 0.6 {
		t.Fatalf("RoCE/IB ratio %v implausibly high", ratio)
	}
}

func TestInterClusterTrunkCaps(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	p := DefaultParams()
	p.InterClusterGbps = 10 // tighter than the 25 Gb/s node NICs
	fab := New(eng, topo, p)
	var done sim.Time
	fab.StartFlow(fab.Route(0, 16, Ether), 1e9, func() { done = eng.Now() })
	eng.Run()
	trunkBW := 10.0 / 8 * 1e9 * p.EthEff
	want := 2*p.EthLatency + 1e9/trunkBW
	if math.Abs(done-want) > 1e-6 {
		t.Fatalf("trunk-capped flow took %v, want %v", done, want)
	}
}

// TestRouteMatchesPairQueries: a Route resolves the same latency and
// bottleneck bandwidth as the single-purpose queries, over the links a
// flow would occupy, each found again by its ID.
func TestRouteMatchesPairQueries(t *testing.T) {
	topo := topology.HybridEnv(4)
	p := DefaultParams()
	p.InterClusterGbps = 10
	p.EthPerFlowBytesPerSec = 1e9
	fab := New(sim.NewEngine(), topo, p)
	if got, want := fab.NumLinks(), 5*topo.NumNodes()+1; got != want {
		t.Fatalf("%d links, want %d", got, want)
	}
	for _, tc := range []struct {
		src, dst int
		class    Class
		names    []string
	}{
		{0, 1, Ether, []string{"n0.nvlink"}},
		{0, 8, RDMA, []string{"n0.rdma.out", "n1.rdma.in"}},
		{16, 0, RDMA, []string{"n2.eth.out", "n0.eth.in", "trunk.c0-c1"}},
	} {
		r := fab.Route(tc.src, tc.dst, tc.class)
		if r.Latency != fab.Latency(tc.src, tc.dst, tc.class) || fab.RouteBandwidth(&r) != fab.PairBandwidth(tc.src, tc.dst, tc.class) {
			t.Fatalf("%d->%d: route latency %v bandwidth %v, queries say %v and %v", tc.src, tc.dst,
				r.Latency, fab.RouteBandwidth(&r), fab.Latency(tc.src, tc.dst, tc.class), fab.PairBandwidth(tc.src, tc.dst, tc.class))
		}
		if len(r.Links()) != len(tc.names) {
			t.Fatalf("%d->%d: %d links, want %v", tc.src, tc.dst, len(r.Links()), tc.names)
		}
		for i, id := range r.Links() {
			if l := fab.Link(int(id)); l.Name() != tc.names[i] || l.ID() != int(id) {
				t.Fatalf("%d->%d: link %d is %s (ID %d), want %s", tc.src, tc.dst, i, l.Name(), l.ID(), tc.names[i])
			}
		}
	}
}

func TestZeroByteFlowIsLatencyOnly(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	var done sim.Time = -1
	fab.StartFlow(fab.Route(0, 8, RDMA), 0, func() { done = eng.Now() })
	eng.Run()
	if math.Abs(done-fab.Latency(0, 8, RDMA)) > 1e-12 {
		t.Fatalf("zero-byte flow took %v, want latency %v", done, fab.Latency(0, 8, RDMA))
	}
}

func TestNegativeFlowPanics(t *testing.T) {
	topo := topology.IBEnv(1)
	_, fab := newFab(t, topo)
	defer func() {
		if recover() == nil {
			t.Fatal("negative flow size did not panic")
		}
	}()
	fab.StartFlow(fab.Route(0, 1, Intra), -1, nil)
}

// Property: total bytes delivered per unit time never exceeds any link's
// capacity; equivalently n equal flows over one bottleneck finish in n× the
// lone time (work conservation + fairness).
func TestWorkConservationProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 1
		topo := topology.IBEnv(2)
		eng := sim.NewEngine()
		fab := New(eng, topo, DefaultParams())
		bytes := 2e8
		var last sim.Time
		for i := 0; i < n; i++ {
			fab.StartFlow(fab.Route(i, 8+i, RDMA), bytes, func() {
				if eng.Now() > last {
					last = eng.Now()
				}
			})
		}
		eng.Run()
		bw := fab.NodeBandwidth(0, RDMA)
		ideal := float64(n) * bytes / bw
		lat := fab.Latency(0, 8, RDMA)
		// Finish no earlier than ideal (capacity bound) and no later than
		// ideal plus latency slack.
		return last >= ideal-1e-9 && last <= ideal+lat+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyOrdering(t *testing.T) {
	topo := topology.HybridEnv(4)
	_, fab := newFab(t, topo)
	intra := fab.Latency(0, 1, Intra)
	ib := fab.Latency(0, 8, RDMA)
	roce := fab.Latency(16, 24, RDMA)
	ethIn := fab.Latency(0, 8, Ether)
	ethX := fab.Latency(0, 16, Ether)
	if !(intra <= ib && ib < roce && roce < ethIn && ethIn <= ethX) {
		t.Fatalf("latency ordering violated: intra=%v ib=%v roce=%v eth=%v ethX=%v",
			intra, ib, roce, ethIn, ethX)
	}
}

// Cross-cluster Ethernet latency doubles exactly when the path traverses
// an inter-cluster trunk — the same f.trunks lookup path() makes. The
// historical code doubled unconditionally, so a trunkless (non-blocking)
// cluster pair paid for a hop its link path never took.
func TestCrossClusterLatencyMatchesTrunkPath(t *testing.T) {
	topo := topology.HybridEnv(4)

	// Trunkless arm: the default params build no inter-cluster trunk, so
	// the cross-cluster path is out-link + in-link only — same as the
	// intra-cluster path, and the α term must agree.
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	if fab.HasTrunk(0, 1) {
		t.Fatal("default params built a trunk")
	}
	in, cross := fab.Latency(0, 8, Ether), fab.Latency(0, 16, Ether)
	if cross != in {
		t.Fatalf("trunkless cross-cluster latency %v != intra-cluster %v (paths are identical)", cross, in)
	}

	// Trunked arm: with an inter-cluster cap the path gains a trunk link
	// and the latency doubles.
	p := DefaultParams()
	p.InterClusterGbps = 20
	fabT := New(sim.NewEngine(), topo, p)
	if !fabT.HasTrunk(0, 1) {
		t.Fatal("trunk params built no trunk")
	}
	inT, crossT := fabT.Latency(0, 8, Ether), fabT.Latency(0, 16, Ether)
	if crossT != 2*inT {
		t.Fatalf("trunked cross-cluster latency %v, want double the intra-cluster %v", crossT, inT)
	}
}
