// Package collective runs the data-parallel ring collectives of a
// training iteration — a gradient reduce-scatter and a parameter
// all-gather — on the netsim fabric. A fluid Ring starts one flow per
// directed ring edge carrying the edge's whole share, (n−1)/n of the
// payload (Patarasuk & Yuan's bandwidth-optimal ring), so contention
// between concurrent groups (many data-parallel rings sharing one NIC)
// emerges from the fabric's max-min sharing.
package collective

import (
	"fmt"
	"sort"

	"holmes/internal/netsim"
)

// AppendEdges resolves a group's ring edges on a fabric and appends them
// to dst in ring order: edge i runs from the i-th rank of the ring to the
// next, and the last back to the first (a singleton group's one edge
// runs from its rank to itself and never carries a flow). A strictly
// increasing group — every group the trainer builds — is already valid
// and in ring order, so it is used as is; any other group is validated
// (an empty or duplicated group panics) and sorted into a copy.
func AppendEdges(dst []netsim.Route, fab *netsim.Fabric, ranks []int, class netsim.Class) []netsim.Route {
	r := ranks
	if !strictlyIncreasing(ranks) {
		validate(ranks)
		r = ring(ranks)
	}
	for i, src := range r {
		dst = append(dst, fab.Route(src, r[(i+1)%len(r)], class))
	}
	return dst
}

// ring orders the group's ranks; rank order keeps same-node neighbours
// adjacent so that most ring edges ride NVLink and only node-boundary
// edges touch the NIC, as NCCL's ring construction does.
func ring(ranks []int) []int {
	r := append([]int(nil), ranks...)
	sort.Ints(r)
	return r
}

// validate rejects degenerate groups.
func validate(ranks []int) {
	if len(ranks) == 0 {
		panic("collective: empty group")
	}
	seen := make(map[int]struct{}, len(ranks))
	for _, r := range ranks {
		if _, dup := seen[r]; dup {
			panic(fmt.Sprintf("collective: duplicate rank %d in group", r))
		}
		seen[r] = struct{}{}
	}
}
