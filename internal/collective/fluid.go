package collective

import (
	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Fluid collective execution.
//
// The stepped Run* functions model every ring round as a synchronized
// barrier of flows — faithful, but O(n·rounds) flows per collective, which
// is too heavy inside a full training-iteration simulation where dozens of
// collectives overlap a pipeline schedule. The fluid variants collapse a
// ring collective into one flow per directed ring edge carrying the
// edge's *total* traffic for the whole operation. Under max-min sharing
// this matches the fluid limit of a ring (whose progress is continuously
// governed by its slowest edge) while exposing exactly the same aggregate
// load to competing traffic on shared NICs.

// RunRingFluid places one flow of perEdgeBytes on every directed ring edge
// and fires onDone when the slowest completes. A strictly increasing
// group — every group the trainer builds — is already valid and in ring
// order, so it is used as is; any other group is validated and sorted
// into a copy.
func RunRingFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, perEdgeBytes float64, class netsim.Class, onDone func()) {
	r := ranks
	if !strictlyIncreasing(ranks) {
		validate(ranks)
		r = ring(ranks)
	}
	n := len(r)
	if n == 1 || perEdgeBytes <= 0 {
		eng.After(0, onDone)
		return
	}
	var wg sim.WaitGroup
	wg.Add(n)
	done := wg.Done // one callback for every edge, not one per edge
	for i := 0; i < n; i++ {
		src, dst := r[i], r[(i+1)%n]
		fab.StartFlow(src, dst, perEdgeBytes, class, done)
	}
	wg.OnZero(onDone)
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

// RunAllReduceFluid executes a ring all-reduce of a `bytes` payload: each
// edge carries 2(n−1)/n · bytes in total.
func RunAllReduceFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	per := 0.0
	if n > 1 {
		per = 2 * float64(n-1) / float64(n) * bytes
	}
	RunRingFluid(eng, fab, ranks, per, class, onDone)
}

// RunReduceScatterFluid executes the reduce-scatter half: (n−1)/n · bytes
// per edge.
func RunReduceScatterFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	per := 0.0
	if n > 1 {
		per = float64(n-1) / float64(n) * bytes
	}
	RunRingFluid(eng, fab, ranks, per, class, onDone)
}

// RunAllGatherFluid executes the all-gather half; identical edge traffic
// to reduce-scatter.
func RunAllGatherFluid(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	RunReduceScatterFluid(eng, fab, ranks, bytes, class, onDone)
}
