package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

// A flow started with multiplicity w (StartFlows) must be w identical
// flows in every observable: each rate, each completion instant, every
// link's admitted bytes and the flow counters equal those of w separate
// flows started one after another at the same instant, alone or sharing
// links with other traffic.

// weightedCase is one script: a twin group of w flows on one route, and
// other flows, each starting at its own instant.
type weightedCase struct {
	w      int
	twin   schedFlow
	others []schedFlow
}

// weightedParams caps every Ethernet stream below a node NIC's share and
// puts a trunk between clusters, so capped freezes, trunk paths and
// NIC bottlenecks all occur.
func weightedParams() Params {
	p := DefaultParams()
	p.EthPerFlowBytesPerSec = 0.9e9
	p.InterClusterGbpsPerNode = 12.5
	return p
}

// runWeighted runs a case folded (one record of weight w) or unfolded (w
// records) and returns every flow's completion instant (the twins first,
// one each), each checkpoint's rates in the same order, every link's
// admitted bytes, and the counters.
func runWeighted(topo *topology.Topology, c weightedCase, fold bool) (done, rates, admitted []float64, started, passes uint64) {
	eng := sim.NewEngine()
	fab := New(eng, topo, weightedParams())
	n := len(c.others)
	done = make([]float64, c.w+n)
	twins := make([]FlowID, c.w)
	others := make([]FlowID, n)
	startTwins := func() {
		r := fab.Route(c.twin.src, c.twin.dst, c.twin.class)
		if fold {
			id := fab.StartFlows(r, c.w, c.twin.bytes, 0, func() {
				for i := 0; i < c.w; i++ {
					done[i] = eng.Now()
				}
			})
			for i := range twins {
				twins[i] = id
			}
			return
		}
		for i := range twins {
			twins[i] = fab.StartFlow(r, c.twin.bytes, func() { done[i] = eng.Now() })
		}
	}
	// Half the others are scheduled before the twins, so those of them
	// starting at the twins' instant start ahead of them.
	for i, o := range c.others {
		if i == n/2 {
			eng.At(c.twin.at, startTwins)
		}
		eng.At(o.at, func() {
			others[i] = fab.StartFlow(fab.Route(o.src, o.dst, o.class), o.bytes, func() { done[c.w+i] = eng.Now() })
		})
	}
	if n == 0 {
		eng.At(c.twin.at, startTwins)
	}
	rate := func(id FlowID) float64 {
		if fl := fab.lookup(id); fl != nil {
			return fl.rate
		}
		return -1
	}
	for _, at := range []float64{0.001, 0.003, 0.006, 0.01, 0.02} {
		eng.RunUntil(at)
		for _, id := range twins {
			rates = append(rates, rate(id))
		}
		for _, id := range others {
			rates = append(rates, rate(id))
		}
	}
	eng.Run()
	for id := 0; id < fab.NumLinks(); id++ {
		admitted = append(admitted, fab.Link(id).Admitted())
	}
	return done, rates, admitted, fab.FlowsStarted(), fab.Rebalances()
}

// drawWeighted draws a case on HybridEnv(4) (ranks 0–15 on the two
// InfiniBand nodes, 16–31 on the two RoCE nodes): twins on an NVLink
// path, an RDMA path inside a cluster, or an Ethernet path across the
// trunk or inside a cluster, and other flows of any class, some
// starting with the twins.
func drawWeighted(rng *rand.Rand, class Class, others int) weightedCase {
	fs := genSchedule(rng, others+1, 32)
	c := weightedCase{w: 2 + rng.Intn(7), twin: fs[0], others: fs[1:]}
	src := rng.Intn(32)
	node, gpu := src/8, src%8
	dst := node*8 + (gpu+1)%8 // Intra: the next GPU of the node
	switch {
	case class == RDMA:
		dst = (node^1)*8 + rng.Intn(8) // the cluster's other node
	case class == Ether && rng.Intn(2) == 0:
		dst = (node^2)*8 + rng.Intn(8) // the other cluster
	case class == Ether:
		dst = (node^1)*8 + rng.Intn(8)
	}
	c.twin = schedFlow{at: 0.002, src: src, dst: dst, class: class, bytes: math.Pow(10, 6+3*rng.Float64())}
	for i := range c.others {
		if rng.Intn(3) == 0 {
			c.others[i].at = c.twin.at // starts with the twins: before or after them
		}
	}
	return c
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestWeightedFlowIsItsTwins holds a weighted flow against w separate
// ones on RDMA, NVLink and capped Ethernet paths (across a trunk or
// not), alone and among other flows.
func TestWeightedFlowIsItsTwins(t *testing.T) {
	topo := topology.HybridEnv(4) // 2 IB + 2 RoCE nodes of 8 GPUs
	for _, class := range []Class{RDMA, Intra, Ether} {
		for _, others := range []int{0, 3, 12} {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := drawWeighted(rng, class, others)
				label := fmt.Sprintf("%v/others=%d/seed=%d (w=%d, %d→%d)", class, others, seed, c.w, c.twin.src, c.twin.dst)
				checkWeighted(t, label, topo, c)
			}
		}
	}
}

func checkWeighted(t *testing.T, label string, topo *topology.Topology, c weightedCase) {
	t.Helper()
	fd, fr, fa, fs, fp := runWeighted(topo, c, true)
	ud, ur, ua, us, up := runWeighted(topo, c, false)
	if i := sameBits(fd, ud); i >= 0 {
		t.Errorf("%s: completion %d at %v, separately %v", label, i, fd[i], ud[i])
	}
	if i := sameBits(fr, ur); i >= 0 {
		t.Errorf("%s: rate %d is %v, separately %v", label, i, fr[i], ur[i])
	}
	if i := sameBits(fa, ua); i >= 0 {
		t.Errorf("%s: link %d admitted %v bytes, separately %v", label, i, fa[i], ua[i])
	}
	if fs != us || fp != up {
		t.Errorf("%s: %d flows and %d passes, separately %d and %d", label, fs, fp, us, up)
	}
}

// TestWeightedFlowCounts: a weighted record counts as w flows started
// and in flight, and its links count it w times.
func TestWeightedFlowCounts(t *testing.T) {
	eng, fab := newFab(t, topology.IBEnv(2))
	r := fab.Route(0, 8, RDMA)
	fab.StartFlows(r, 3, 1e8, 0, nil)
	eng.RunUntil(0.001)
	if fab.FlowsStarted() != 3 || fab.InFlight() != 3 {
		t.Fatalf("started %d, in flight %d; want 3 and 3", fab.FlowsStarted(), fab.InFlight())
	}
	l := fab.Link(int(r.Links()[0]))
	if l.units != 3 || len(l.flows) != 1 {
		t.Fatalf("link holds %d records for %d flows, want 1 for 3", len(l.flows), l.units)
	}
	eng.Run()
	if fab.InFlight() != 0 || l.units != 0 {
		t.Fatalf("after the run: %d in flight, link counts %d", fab.InFlight(), l.units)
	}
	if l.Admitted() != 3e8 {
		t.Fatalf("link admitted %v bytes, want 3e8", l.Admitted())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("multiplicity 0 accepted")
		}
	}()
	fab.StartFlows(r, 0, 1e8, 0, nil)
}
