package collective

import (
	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Fluid collective execution.
//
// A stepped ring moves a chunk per edge per round behind a barrier:
// O(n·rounds) flows per collective, too heavy inside a training-iteration
// simulation where dozens of collectives overlap a pipeline schedule. A
// fluid Ring collapses a ring collective into one flow per directed ring
// edge carrying the edge's *total* traffic for the whole operation. Under
// max-min sharing this matches the fluid limit of a ring (whose progress
// is continuously governed by its slowest edge) while exposing exactly
// the same aggregate load to competing traffic on shared NICs; it differs
// from the stepped ring only by the per-round latency barriers
// (fluid_test.go keeps a stepped all-reduce as the reference).

// Ring runs fluid collectives over one fixed group, one at a time. Each
// collective places one flow per directed ring edge and fires its onDone
// when the slowest completes. The edges count down on a callback bound
// once, so a warmed ring starts collective after collective without
// allocating; the trainer keeps one per data-parallel group, whose
// gradient buckets and parameter all-gather run strictly in sequence.
type Ring struct {
	eng   *sim.Engine
	fab   *netsim.Fabric
	ranks []int // ring order
	class netsim.Class

	left     int    // edges of the running collective still in flight
	onDone   func() // the running collective's completion
	edgeDone func() // bound once: counts one edge down
}

// NewRing prepares a ring over ranks on a class. A strictly increasing
// group — every group the trainer builds — is already valid and in ring
// order, so it is used as is; any other group is validated (an empty or
// duplicated group panics) and sorted into a copy.
func NewRing(eng *sim.Engine, fab *netsim.Fabric, ranks []int, class netsim.Class) *Ring {
	r := ranks
	if !strictlyIncreasing(ranks) {
		validate(ranks)
		r = ring(ranks)
	}
	g := &Ring{eng: eng, fab: fab, ranks: r, class: class}
	g.edgeDone = g.edge
	return g
}

// run places one flow of perEdgeBytes on every directed ring edge and
// fires onDone when the slowest completes; a singleton group or an empty
// payload completes at the current instant. Starting a collective while
// the previous one is in flight panics.
func (g *Ring) run(perEdgeBytes float64, onDone func()) {
	if g.left > 0 {
		panic("collective: ring collective started while another is in flight")
	}
	n := len(g.ranks)
	if n == 1 || perEdgeBytes <= 0 {
		g.eng.After(0, onDone)
		return
	}
	g.left, g.onDone = n, onDone
	for i := 0; i < n; i++ {
		g.fab.StartFlow(g.ranks[i], g.ranks[(i+1)%n], perEdgeBytes, g.class, g.edgeDone)
	}
}

// edge counts one completed edge; the last one fires the collective's
// onDone, after the ring is free for the next collective.
func (g *Ring) edge() {
	if g.left--; g.left > 0 {
		return
	}
	fn := g.onDone
	g.onDone = nil
	fn()
}

// strictlyIncreasing reports whether a group is non-empty, sorted and
// free of duplicates.
func strictlyIncreasing(ranks []int) bool {
	for i := 1; i < len(ranks); i++ {
		if ranks[i] <= ranks[i-1] {
			return false
		}
	}
	return len(ranks) > 0
}

// AllReduce executes a ring all-reduce of a `bytes` payload: each edge
// carries 2(n−1)/n · bytes in total.
func (g *Ring) AllReduce(bytes float64, onDone func()) {
	g.run(2*g.share(bytes), onDone)
}

// ReduceScatter executes the reduce-scatter half: (n−1)/n · bytes per
// edge.
func (g *Ring) ReduceScatter(bytes float64, onDone func()) {
	g.run(g.share(bytes), onDone)
}

// AllGather executes the all-gather half; identical edge traffic to
// reduce-scatter.
func (g *Ring) AllGather(bytes float64, onDone func()) {
	g.run(g.share(bytes), onDone)
}

// share is the (n−1)/n · bytes a ring half moves across each edge.
func (g *Ring) share(bytes float64) float64 {
	n := len(g.ranks)
	return float64(n-1) / float64(n) * bytes
}
