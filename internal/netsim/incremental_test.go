package netsim

import (
	"math"
	"math/rand"
	"testing"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

// The incremental rebalancer must be observationally equivalent to the
// retained full-recompute oracle (Params.FullRecompute): every flow of an
// arbitrary arrival/departure schedule completes at the same virtual time
// in both modes, up to floating-point noise from the different drain
// granularity.

type schedFlow struct {
	at       float64
	src, dst int
	bytes    float64
	class    Class
}

func genSchedule(rng *rand.Rand, n, ranks int) []schedFlow {
	classes := []Class{Intra, RDMA, Ether}
	fs := make([]schedFlow, n)
	for i := range fs {
		src := rng.Intn(ranks)
		dst := rng.Intn(ranks)
		for dst == src {
			dst = (dst + 1) % ranks
		}
		bytes := 0.0
		if rng.Intn(12) > 0 { // keep some zero-byte control messages in the mix
			bytes = math.Pow(10, 4+5*rng.Float64()) // 10 KB .. 1 GB
		}
		fs[i] = schedFlow{
			at:    rng.Float64() * 0.02,
			src:   src,
			dst:   dst,
			bytes: bytes,
			class: classes[rng.Intn(len(classes))],
		}
	}
	return fs
}

// replay runs the schedule on a fresh fabric and returns each flow's
// completion time. With fault set, node 0's RDMA links degrade mid-run and
// recover later, exercising the capacity-change rebalance path.
func replay(topo *topology.Topology, p Params, fs []schedFlow, fault bool) []float64 {
	eng := sim.NewEngine()
	fab := New(eng, topo, p)
	done := make([]float64, len(fs))
	for i := range fs {
		i, sf := i, fs[i]
		eng.At(sf.at, func() {
			fab.StartFlow(fab.Route(sf.src, sf.dst, sf.class), sf.bytes, func() { done[i] = eng.Now() })
		})
	}
	if fault {
		eng.At(0.005, func() {
			prevOut, prevIn, err := fab.DegradeNode(0, RDMA, 0.25)
			if err != nil {
				panic(err)
			}
			eng.At(0.015, func() {
				if err := fab.RestoreNode(0, RDMA, prevOut, prevIn); err != nil {
					panic(err)
				}
			})
		})
	}
	eng.Run()
	return done
}

func timesClose(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12+1e-9*scale
}

func TestIncrementalMatchesFullRecomputeOracle(t *testing.T) {
	topos := map[string]*topology.Topology{
		"hybrid4": topology.HybridEnv(4),
		"eth2":    topology.EthernetEnv(2),
		"ib2":     topology.IBEnv(2),
	}
	for name, topo := range topos {
		for seed := int64(0); seed < 15; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fs := genSchedule(rng, 10+rng.Intn(60), topo.NumDevices())
			p := DefaultParams()
			if seed%3 == 1 {
				// Exercise the per-flow cap (capped-freeze branch).
				p.EthPerFlowBytesPerSec = 1.5e9
			}
			if seed%4 == 2 {
				p.InterClusterGbps = 20
			}
			fault := seed%2 == 1
			inc := replay(topo, p, fs, fault)
			p.FullRecompute = true
			full := replay(topo, p, fs, fault)
			for i := range fs {
				if full[i] == 0 || inc[i] == 0 {
					t.Fatalf("%s seed %d flow %d never completed (inc=%v full=%v)",
						name, seed, i, inc[i], full[i])
				}
				if !timesClose(inc[i], full[i]) {
					t.Fatalf("%s seed %d flow %d (%+v): incremental finished at %.15g, oracle at %.15g",
						name, seed, i, fs[i], inc[i], full[i])
				}
			}
		}
	}
}

// The coalesced rebalance must leave no pending work behind: after a run
// drains, every link's flow list is empty and no flow is active.
func TestFabricDrainsCompletely(t *testing.T) {
	topo := topology.HybridEnv(4)
	rng := rand.New(rand.NewSource(7))
	fs := genSchedule(rng, 80, topo.NumDevices())
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	for _, sf := range fs {
		sf := sf
		eng.At(sf.at, func() { fab.StartFlow(fab.Route(sf.src, sf.dst, sf.class), sf.bytes, nil) })
	}
	eng.Run()
	if fab.InFlight() != 0 {
		t.Fatalf("%d flows still active after drain", fab.InFlight())
	}
	for _, l := range fab.links {
		if len(l.flows) != 0 {
			t.Fatalf("link %s still carries %d flows", l.Name(), len(l.flows))
		}
	}
}

// Rebalancing must be allocation-free on the hot path: steady-state flow
// churn over a fixed fabric allocates only the flows themselves and their
// completion events.
func TestRebalanceAllocationBound(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := New(eng, topo, DefaultParams())
	// Warm up scratch slices.
	run := func(n int) {
		for i := 0; i < n; i++ {
			fab.StartFlow(fab.Route(i%8, 8+(i+1)%8, RDMA), 1e8, nil)
		}
		eng.Run()
	}
	run(32)
	avg := testing.AllocsPerRun(20, func() { run(16) })
	// One flow struct + one latency event + one completion event per flow,
	// plus heap growth slack; the old map-based rebalancer cost hundreds.
	if perFlow := avg / 16; perFlow > 8 {
		t.Fatalf("rebalance allocates too much: %.1f allocs/flow", perFlow)
	}
}
