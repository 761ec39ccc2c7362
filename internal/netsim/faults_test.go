package netsim

import (
	"math"
	"testing"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

func TestDegradeSlowsInFlightFlow(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	bytes := 1e9
	bw := fab.PairBandwidth(0, 8, RDMA)
	lone := bytes / bw

	var done sim.Time
	fab.StartFlow(fab.Route(0, 8, RDMA), bytes, func() { done = eng.Now() })
	// Halve the sender's RDMA bandwidth when the flow is halfway through.
	eng.At(lone/2, func() {
		if _, _, err := fab.DegradeNode(0, RDMA, 0.5); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	// The flow starts moving after the latency term, so at T = lone/2 it
	// has transferred (lone/2 − lat) worth; the rest runs at half rate:
	// done = lone/2 + 2·(lone/2 + lat) − ... = 1.5·lone + 2·lat.
	want := lone/2 + lone + 2*fab.Latency(0, 8, RDMA)
	if math.Abs(done-want) > 1e-6 {
		t.Fatalf("degraded flow took %v, want %v", done, want)
	}
}

func TestRestoreRecoversBandwidth(t *testing.T) {
	topo := topology.RoCEEnv(2)
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	prevOut, prevIn, err := fab.DegradeNode(0, RDMA, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	degraded := fab.PairBandwidth(0, 8, RDMA)
	if math.Abs(degraded-prevOut*0.25) > 1 {
		t.Fatalf("degraded bw %v, want %v", degraded, prevOut*0.25)
	}
	if err := fab.RestoreNode(0, RDMA, prevOut, prevIn); err != nil {
		t.Fatal(err)
	}
	if got := fab.PairBandwidth(0, 8, RDMA); math.Abs(got-prevOut) > 1 {
		t.Fatalf("restore gave %v, want %v", got, prevOut)
	}
}

func TestFailNodeLeavesResidualTrickle(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	if _, _, err := fab.FailNode(1, RDMA); err != nil {
		t.Fatal(err)
	}
	bw := fab.PairBandwidth(0, 8, RDMA)
	if bw <= 0 {
		t.Fatal("failed node must keep a residual trickle, not zero")
	}
	if bw > 1e6 {
		t.Fatalf("failed node bandwidth %v still usable", bw)
	}
	// A flow across the failed link still completes in virtual time.
	fired := false
	fab.StartFlow(fab.Route(0, 8, RDMA), 1e3, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("flow across failed link never completed")
	}
}

func TestDegradeValidation(t *testing.T) {
	topo := topology.IBEnv(1)
	fab := New(sim.NewEngine(), topo, DefaultParams())
	if _, _, err := fab.DegradeNode(9, RDMA, 0.5); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, _, err := fab.DegradeNode(0, RDMA, 0); err == nil {
		t.Fatal("zero factor accepted")
	}
	if _, _, err := fab.DegradeNode(0, RDMA, 1.5); err == nil {
		t.Fatal("factor > 1 accepted")
	}
	if err := fab.RestoreNode(0, RDMA, -1, 1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := fab.RestoreNode(5, RDMA, 1, 1); err == nil {
		t.Fatal("bad node restore accepted")
	}
}

func TestDegradeEthernetAffectsCrossCluster(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	before := fab.PairBandwidth(0, 16, Ether)
	if _, _, err := fab.DegradeNode(0, Ether, 0.5); err != nil {
		t.Fatal(err)
	}
	after := fab.PairBandwidth(0, 16, Ether)
	if math.Abs(after-before/2) > 1 {
		t.Fatalf("cross-cluster bw %v after degrade, want %v", after, before/2)
	}
	// RDMA links of the same node are untouched.
	if got := fab.PairBandwidth(0, 8, RDMA); got != fab.NodeBandwidth(0, RDMA) {
		t.Fatal("RDMA bandwidth changed by Ethernet degrade")
	}
}
