// Package collective runs the data-parallel ring collectives of a
// training iteration — a gradient reduce-scatter, a parameter all-gather,
// or both back to back as an all-reduce — on the netsim fabric. A fluid
// Ring starts one flow per directed ring edge carrying the edge's whole
// share, (n−1)/n of the payload per half (Patarasuk & Yuan's
// bandwidth-optimal ring), so contention between concurrent groups (many
// data-parallel rings sharing one NIC) emerges from the fabric's max-min
// sharing.
package collective

import (
	"fmt"
	"sort"
)

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
