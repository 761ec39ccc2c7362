package fleet

import (
	"slices"
	"sort"

	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// lowerEvents folds the scenario's extended vocabulary down to the three
// primitives the replay clock understands — fail_node, restore_node,
// degrade_nic — at the fleet's placement granularity:
//
//   - straggler lowers to a persistent degrade of both NIC classes;
//   - fail_cluster lowers to one fail_node per member node;
//   - flap_link lowers to fail at its start and restore at its end — a
//     scheduler does not chase millisecond duty cycles, it routes around
//     the node for the whole flapping window;
//   - loss/corrupt lower to a goodput-equivalent degrade (factor
//     1-Pct/100), restored at Until when bounded;
//   - delay/jitter move the α term, not capacity, and lower to nothing.
//
// Both the from-scratch replay and the incremental resume path consume
// the same lowered stream, so their decision sequences stay identical by
// construction. The result is (At, lowering order) sorted, matching the
// ordering contract of Scenario.Ordered.
func lowerEvents(topo *topology.Topology, sc *scenario.Scenario) []scenario.Event {
	evs := sc.Ordered()
	out := make([]scenario.Event, 0, len(evs))
	for _, ev := range evs {
		out = lowerEvent(topo, out, ev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// lowerEvent appends the primitives one event lowers to, in lowering
// order.
func lowerEvent(topo *topology.Topology, out []scenario.Event, ev scenario.Event) []scenario.Event {
	switch ev.Kind {
	case scenario.FailNode, scenario.RestoreNode, scenario.DegradeNIC:
		out = append(out, ev)
	case scenario.Straggler:
		out = append(out,
			scenario.Event{Kind: scenario.DegradeNIC, At: ev.At, Node: ev.Node, Class: scenario.ClassRDMA, Factor: ev.Factor},
			scenario.Event{Kind: scenario.DegradeNIC, At: ev.At, Node: ev.Node, Class: scenario.ClassEther, Factor: ev.Factor})
	case scenario.FailCluster:
		for _, n := range topo.Clusters[ev.Cluster].Nodes {
			out = append(out, scenario.Event{Kind: scenario.FailNode, At: ev.At, Node: n.Index})
		}
	case scenario.FlapLink:
		out = append(out,
			scenario.Event{Kind: scenario.FailNode, At: ev.At, Node: ev.Node},
			scenario.Event{Kind: scenario.RestoreNode, At: ev.Until, Node: ev.Node})
	case scenario.Loss, scenario.Corrupt:
		class := ev.Class
		if class == "" {
			// Impairment events default to Ether; degrade_nic's empty
			// class means RDMA, so make the default explicit.
			class = scenario.ClassEther
		}
		out = append(out, scenario.Event{Kind: scenario.DegradeNIC, At: ev.At, Node: ev.Node, Class: class, Factor: 1 - ev.Pct/100})
		if ev.Until > 0 {
			out = append(out, scenario.Event{Kind: scenario.RestoreNode, At: ev.Until, Node: ev.Node})
		}
	case scenario.Delay, scenario.Jitter:
		// No capacity effect at placement granularity.
	}
	return out
}

// appendLowered merges the primitives of one event appended to a
// timeline into the timeline's lowered slice lowered. It holds only when
// no earlier event of the timeline is later than ev: then every kept
// primitive comes from an event ordered before ev, and each of ev's
// primitives goes after every kept one at or before its instant, in
// lowering order — the slot lowerEvents gives it. Its primitives are in
// At order already: those at ev.At first, a restore at a later Until
// last.
func appendLowered(topo *topology.Topology, lowered []scenario.Event, ev scenario.Event) []scenario.Event {
	var buf [2]scenario.Event
	for _, e := range lowerEvent(topo, buf[:0], ev) {
		i := sort.Search(len(lowered), func(k int) bool { return lowered[k].At > e.At })
		lowered = slices.Insert(lowered, i, e)
	}
	return lowered
}
