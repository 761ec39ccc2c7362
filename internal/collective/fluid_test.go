package collective

import (
	"math"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

func groupOfNodeLeads(topo *topology.Topology, nodes int) []int {
	var ranks []int
	for i := 0; i < nodes; i++ {
		ranks = append(ranks, topo.Node(i).Devices[0].Rank)
	}
	return ranks
}

// steppedAllReduce is the reference ring all-reduce the fluid Ring
// approximates: 2(n−1) rounds, each a barrier of n flows that move
// bytes/n from every rank to its successor.
func steppedAllReduce(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	validate(ranks)
	r := ring(ranks)
	n := len(r)
	chunk := bytes / float64(n)
	var round func(s int)
	round = func(s int) {
		if s == 2*(n-1) {
			onDone()
			return
		}
		var wg sim.WaitGroup
		wg.Add(n)
		for i := range r {
			fab.StartFlow(r[i], r[(i+1)%n], chunk, class, wg.Done)
		}
		wg.OnZero(func() { round(s + 1) })
	}
	round(0)
}

func TestFluidMatchesSteppedLoneAllReduce(t *testing.T) {
	// With no competing traffic, the fluid all-reduce and the stepped
	// all-reduce should agree closely: the fluid model removes only the
	// per-round latency barriers.
	topo := topology.IBEnv(4)
	g := groupOfNodeLeads(topo, 4)
	bytes := 2e9

	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	var stepped sim.Time
	steppedAllReduce(fab, g, bytes, netsim.RDMA, func() { stepped = eng.Now() })
	eng.Run()

	eng.Reset()
	fab = netsim.New(eng, topo, netsim.DefaultParams())
	var fluid sim.Time
	NewRing(eng, fab, g, netsim.RDMA).AllReduce(bytes, func() { fluid = eng.Now() })
	eng.Run()

	if math.Abs(fluid-stepped)/stepped > 0.05 {
		t.Fatalf("fluid %v vs stepped %v diverge beyond 5%%", fluid, stepped)
	}
	if fluid > stepped {
		t.Fatalf("fluid (%v) must not exceed stepped (%v): it only removes barriers", fluid, stepped)
	}
}

func TestFluidReduceScatterHalfOfAllReduce(t *testing.T) {
	topo := topology.RoCEEnv(4)
	g := groupOfNodeLeads(topo, 4)
	run := func(op func(*Ring, float64, func())) sim.Time {
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, netsim.DefaultParams())
		var end sim.Time
		op(NewRing(eng, fab, g, netsim.RDMA), 1e9, func() { end = eng.Now() })
		eng.Run()
		return end
	}
	rs := run((*Ring).ReduceScatter)
	ar := run((*Ring).AllReduce)
	ag := run((*Ring).AllGather)
	if math.Abs(rs/ar-0.5) > 0.02 {
		t.Fatalf("fluid RS/AR = %v, want ~0.5", rs/ar)
	}
	if rs != ag {
		t.Fatalf("fluid RS (%v) and AG (%v) must match", rs, ag)
	}
}

// A singleton group and an empty payload both complete at instant 0.
func TestFluidSingletonAndZeroComplete(t *testing.T) {
	topo := topology.IBEnv(1)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	calls := 0
	done := func() {
		if now := eng.Now(); now != 0 {
			t.Errorf("degenerate collective completed at %v, want 0", now)
		}
		calls++
	}
	NewRing(eng, fab, []int{2}, netsim.RDMA).AllReduce(1e9, done)
	NewRing(eng, fab, []int{0, 1}, netsim.Intra).ReduceScatter(0, done)
	eng.Run()
	if calls != 2 {
		t.Fatalf("degenerate fluid collectives completed %d/2", calls)
	}
}

func TestFluidRingsShareFairly(t *testing.T) {
	// Two fluid all-reduces over the same two nodes take ~2x one.
	topo := topology.IBEnv(2)
	one := func() sim.Time {
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, netsim.DefaultParams())
		var end sim.Time
		NewRing(eng, fab, []int{0, 8}, netsim.RDMA).AllReduce(1e9, func() { end = eng.Now() })
		eng.Run()
		return end
	}()
	both := func() sim.Time {
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, netsim.DefaultParams())
		var wg sim.WaitGroup
		wg.Add(2)
		var end sim.Time
		NewRing(eng, fab, []int{0, 8}, netsim.RDMA).AllReduce(1e9, wg.Done)
		NewRing(eng, fab, []int{1, 9}, netsim.RDMA).AllReduce(1e9, wg.Done)
		wg.OnZero(func() { end = eng.Now() })
		eng.Run()
		return end
	}()
	if ratio := both / one; math.Abs(ratio-2) > 0.1 {
		t.Fatalf("two fluid rings / one = %v, want ~2", ratio)
	}
}

func TestFluidCrossClusterRidesEthernet(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	// Group spans clusters: the cluster-crossing edges run at Ethernet
	// speed and dominate.
	var end sim.Time
	NewRing(eng, fab, []int{0, 8, 16, 24}, netsim.RDMA).AllReduce(1e9, func() { end = eng.Now() })
	eng.Run()
	ethBW := fab.PairBandwidth(8, 16, netsim.Ether)
	minTime := (2.0 * 3 / 4 * 1e9) / ethBW
	if end < minTime {
		t.Fatalf("cross-cluster fluid ring %v beat the Ethernet bound %v", end, minTime)
	}
}

// NewRing uses a strictly increasing group as its ring directly and
// validates and sorts anything else: an unsorted group times exactly like
// its sorted twin, and a degenerate one still panics.
func TestFluidRingOrderAndValidation(t *testing.T) {
	topo := topology.HybridEnv(4)
	run := func(ranks []int) sim.Time {
		eng := sim.NewEngine()
		fab := netsim.New(eng, topo, netsim.DefaultParams())
		var end sim.Time
		NewRing(eng, fab, ranks, netsim.RDMA).AllReduce(1e9, func() { end = eng.Now() })
		eng.Run()
		return end
	}
	for _, g := range [][2][]int{
		{{0, 8, 16, 24}, {24, 0, 16, 8}},
		// Same-node neighbours stay adjacent, so their edges ride NVLink.
		{{0, 1, 8, 9}, {9, 0, 8, 1}},
	} {
		if sorted, unsorted := run(g[0]), run(g[1]); sorted != unsorted {
			t.Fatalf("sorted ring %v took %v, unsorted %v took %v", g[0], sorted, g[1], unsorted)
		}
	}
	for name, ranks := range map[string][]int{"empty": nil, "duplicate": {3, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s group did not panic", name)
				}
			}()
			run(ranks)
		}()
	}
}

// A ring runs collective after collective, as a data-parallel group's
// buckets do: each one times like a fresh ring's (exactly, from time
// zero; to rounding, from a later start), a warmed ring
// starts and completes one without allocating, and starting one while
// another is in flight panics.
func TestRingReuse(t *testing.T) {
	topo := topology.HybridEnv(4)
	g := []int{0, 8, 16, 24}
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	fresh := func() sim.Time {
		eng := sim.NewEngine()
		NewRing(eng, netsim.New(eng, topo, netsim.DefaultParams()), g, netsim.RDMA).ReduceScatter(1e9, func() {})
		return eng.Run()
	}()
	r := NewRing(eng, fab, g, netsim.RDMA)
	var start, took sim.Time
	done := func() { took = eng.Now() - start }
	collective := func() {
		start = eng.Now()
		r.ReduceScatter(1e9, done)
		eng.Run()
	}
	collective()
	if took != fresh {
		t.Fatalf("first collective took %v, a fresh ring %v", took, fresh)
	}
	if n := testing.AllocsPerRun(20, collective); n != 0 {
		t.Fatalf("warmed ring allocates %v per collective, want 0", n)
	}
	if math.Abs(took-fresh) > 1e-12*fresh {
		t.Fatalf("reused ring took %v, a fresh ring %v", took, fresh)
	}
	r.ReduceScatter(1e9, done)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping collectives on one ring did not panic")
		}
	}()
	r.AllGather(1e9, done)
}
