package scenario

import (
	"fmt"

	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Background-traffic generation constants. A stream is modelled as
// back-to-back rate-capped chunks rather than one unbounded flow: each
// chunk completion is a scheduling point, so the stream reacts to
// congestion and to Until/Stop, while the per-flow cap keeps the offered
// load at the scripted rate when the path is uncongested.
const (
	// bgChunkSeconds is the chunk length of a rate-limited stream, in
	// seconds of offered traffic.
	bgChunkSeconds = 0.05
	// bgGreedyChunkBytes is the chunk size of a greedy (Gbps = 0) stream.
	bgGreedyChunkBytes = 64 << 20
)

// Runtime is one scenario bound to an engine and a fabric: it owns the
// scheduled timeline events and pushes folded target state to the
// fabric at each event instant. Stop cancels everything still pending;
// the trainer calls it when the iteration completes so an open-ended
// scenario (background traffic with Until = 0, events scripted past the
// iteration's end) cannot keep the engine alive.
//
// The runtime never mutates the fabric incrementally. At every event it
// re-folds the timeline prefix (StateAt / foldImpair) and pushes
// absolute factors and impairments, so the live fabric and the planner
// view StateAt exposes agree by construction — including under event
// orderings the incremental bookkeeping used to get subtly wrong
// (double failures, restores crossing flap windows). A factor is
// relative to the link's bind-time capacity, snapshotted the first time
// an event touches the link: factor 0.5 means "half the bind-time
// capacity", full stop.
type Runtime struct {
	eng       *sim.Engine
	fab       *netsim.Fabric
	sc        *Scenario
	stopped   bool
	pending   []sim.Event
	applied   int
	baseNode  map[capKey]savedCaps
	baseTrunk map[[2]int]float64
}

type capKey struct {
	node  int
	class netsim.Class
}

type savedCaps struct{ out, in float64 }

// Bind validates the scenario against the fabric's topology and
// schedules every event onto the engine at its simulated instant.
// Events apply in (At, declaration) order; an empty scenario schedules
// nothing, so the bound run is bit-identical to an unbound one.
// JoinNodes events are fabric no-ops (a running iteration cannot adopt
// new nodes); they exist for the replanning path (EffectiveTopology).
func (s *Scenario) Bind(eng *sim.Engine, fab *netsim.Fabric) (*Runtime, error) {
	rt := &Runtime{eng: eng, fab: fab, sc: s}
	if s.Empty() {
		return rt, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := s.ValidateFor(fab.Topo); err != nil {
		return nil, err
	}
	ordered := s.ordered()
	// Partitions need a trunk to cut; fail at bind time, not mid-run.
	for _, ev := range ordered {
		if ev.Kind == Partition && !fab.HasTrunk(ev.Cluster, ev.Peer) {
			return nil, fmt.Errorf("scenario: partition %d|%d: the fabric has no inter-cluster trunk to cut (InterClusterGbps = 0)", ev.Cluster, ev.Peer)
		}
	}
	rt.baseNode = make(map[capKey]savedCaps)
	rt.baseTrunk = make(map[[2]int]float64)
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	fab.SeedJitter(seed)
	for _, ev := range ordered {
		ev := ev
		switch ev.Kind {
		case DegradeNIC:
			class := mustClass(ev.Class, netsim.RDMA)
			rt.schedule(ev.At, func() { rt.pushNode(ev.Node, class) })
		case Straggler, FailNode:
			rt.schedule(ev.At, func() { rt.pushNode(ev.Node, netsim.RDMA, netsim.Ether) })
		case RestoreNode:
			rt.schedule(ev.At, func() { rt.pushNode(ev.Node, netsim.Intra, netsim.RDMA, netsim.Ether) })
		case BackgroundTraffic:
			rt.schedule(ev.At, func() { rt.stream(ev) })
		case JoinNodes:
			// No fabric effect; counted as applied for observability.
			rt.schedule(ev.At, func() {})
		case Delay, Jitter, Loss, Corrupt:
			class := mustClass(ev.Class, netsim.Ether)
			out, in, _ := ev.dirs()
			push := func() { rt.pushImpair(ev.Node, class, out, in) }
			rt.schedule(ev.At, push)
			if ev.Until > 0 {
				rt.scheduleInternal(ev.Until, push)
			}
		case FlapLink:
			rt.scheduleFlap(ev)
		case Partition:
			push := func() { rt.pushTrunk(ev.Cluster, ev.Peer) }
			rt.schedule(ev.At, push)
			if ev.Until > 0 {
				rt.scheduleInternal(ev.Until, push)
			}
		case FailCluster:
			rt.schedule(ev.At, func() { rt.pushCluster(ev.Cluster) })
		}
	}
	return rt, nil
}

// mustClass resolves a validated class name; Validate already rejected
// anything unknown.
func mustClass(c Class, def netsim.Class) netsim.Class {
	class, err := c.netClass(def)
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return class
}

// scheduleFlap lays out one flap_link event's edges. The edge instants
// use the exact float arithmetic flapDown folds with (At + k*cycle), so
// a StateAt query at an edge instant agrees with the fabric. Only the
// first down-edge counts as the scripted event firing; the rest of the
// duty cycle is internal bookkeeping.
func (rt *Runtime) scheduleFlap(ev Event) {
	class := mustClass(ev.Class, netsim.RDMA)
	push := func() { rt.pushNode(ev.Node, class) }
	cycle := (ev.DownMs + ev.UpMs) / 1e3
	for k := 0.0; ; k++ {
		down := ev.At + k*cycle
		if down >= ev.Until {
			break
		}
		if k == 0 {
			rt.schedule(down, push)
		} else {
			rt.scheduleInternal(down, push)
		}
		up := down + ev.DownMs/1e3
		if up > ev.Until {
			up = ev.Until
		}
		rt.scheduleInternal(up, push)
	}
}

// pushNode folds the timeline at the current instant and pushes the
// node's absolute capacity factors for the given classes.
func (rt *Runtime) pushNode(node int, classes ...netsim.Class) {
	st := rt.sc.StateAt(rt.eng.Now())
	ns, ok := st.Nodes[node]
	if !ok {
		ns = pristineNode()
	}
	down := ns.Failed || st.FailedClusters[rt.fab.Topo.Node(node).Cluster]
	for _, class := range classes {
		f := ns.Factor(class)
		if down && class != netsim.Intra {
			// Failure collapses the network-facing links to the residual
			// trickle on top of any degradation; the intra-node
			// interconnect is untouched (FailNode semantics).
			f *= netsim.FailResidual
		}
		if err := rt.setNodeFactor(node, class, f); err != nil {
			// Validate/ValidateFor admit only in-range events, so this
			// is a programming error, not an input error.
			panic(fmt.Sprintf("scenario: apply node factor: %v", err))
		}
	}
}

// pushImpair folds the impairment events at the current instant and
// pushes the node's absolute impairment for the touched directions (the
// zero value clears an expired one).
func (rt *Runtime) pushImpair(node int, class netsim.Class, out, in bool) {
	m := rt.sc.foldImpair(rt.eng.Now())
	for _, inbound := range []bool{false, true} {
		if (inbound && !in) || (!inbound && !out) {
			continue
		}
		imp := m[impairTarget{node: node, class: class, inbound: inbound}]
		if err := rt.fab.SetImpairment(node, class, inbound, imp); err != nil {
			panic(fmt.Sprintf("scenario: apply impairment: %v", err))
		}
	}
}

// pushTrunk folds the partition state at the current instant and pushes
// the trunk's absolute factor.
func (rt *Runtime) pushTrunk(c1, c2 int) {
	st := rt.sc.StateAt(rt.eng.Now())
	f := 1.0
	if st.Partitioned(c1, c2) {
		f = netsim.FailResidual
	}
	if err := rt.setTrunkFactor(c1, c2, f); err != nil {
		panic(fmt.Sprintf("scenario: partition: %v", err))
	}
}

// pushCluster fails every node of a cluster — the fail_cluster blast
// radius.
func (rt *Runtime) pushCluster(cluster int) {
	for _, n := range rt.fab.Topo.Clusters[cluster].Nodes {
		rt.pushNode(n.Index, netsim.RDMA, netsim.Ether)
	}
}

// setNodeFactor scales both directions of one node's class links to
// factor × their bind-time capacities. Factor 1 restores.
func (rt *Runtime) setNodeFactor(node int, class netsim.Class, factor float64) error {
	key := capKey{node: node, class: class}
	base, touched := rt.baseNode[key]
	if !touched {
		if factor == 1 {
			return nil // restoring an untouched link: nothing to do
		}
		out, in, err := rt.fab.NodeCaps(node, class)
		if err != nil {
			return err
		}
		base = savedCaps{out: out, in: in}
		rt.baseNode[key] = base
	}
	return rt.fab.RestoreNode(node, class, base.out*factor, base.in*factor)
}

// setTrunkFactor scales the inter-cluster trunk between the pair to
// factor × its bind-time capacity. Factor 1 restores.
func (rt *Runtime) setTrunkFactor(c1, c2 int, factor float64) error {
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	key := [2]int{c1, c2}
	base, touched := rt.baseTrunk[key]
	if !touched {
		if factor == 1 {
			return nil
		}
		cap, ok := rt.fab.TrunkBandwidth(c1, c2)
		if !ok {
			return fmt.Errorf("scenario: no trunk between clusters %d and %d", c1, c2)
		}
		base = cap
		rt.baseTrunk[key] = base
	}
	return rt.fab.RestoreTrunk(c1, c2, base*factor)
}

// stream runs one background_traffic event from its At instant:
// back-to-back flows between the first device of each endpoint node,
// each chunk capped at the scripted rate, until Until (or Stop) ends the
// stream. The final rate-capped chunk is clamped to the bytes the
// scripted rate can offer before Until, and a greedy chunk still on the
// wire at Until is aborted — so the stream never perturbs the fabric
// past its scripted window no matter how congested the path is.
func (rt *Runtime) stream(ev Event) {
	class := mustClass(ev.Class, netsim.Ether)
	g := rt.fab.Topo.GPUsPerNode
	src, dst := ev.Src*g, ev.Dst*g
	rate := ev.Gbps / 8 * 1e9 // bytes/s; 0 = greedy
	route := rt.fab.Route(src, dst, class)
	var inflight netsim.FlowID
	var next func()
	next = func() {
		if rt.stopped {
			return
		}
		now := rt.eng.Now()
		if ev.Until > 0 && now >= ev.Until {
			return
		}
		chunk := float64(bgGreedyChunkBytes)
		if rate > 0 {
			chunk = rate * bgChunkSeconds
			if ev.Until > 0 {
				// Clamp the last chunk to what the scripted rate can
				// still offer before the deadline.
				if left := rate * (ev.Until - now); chunk > left {
					chunk = left
				}
			}
			if chunk <= 0 {
				return
			}
		}
		inflight = rt.fab.StartFlows(route, 1, chunk, rate, next)
	}
	next()
	if ev.Until > 0 {
		rt.scheduleInternal(ev.Until, func() {
			// A rate-capped final chunk was clamped to end at Until on
			// an uncongested path; whatever is still in flight — a
			// greedy chunk, or a clamped chunk stalled by congestion —
			// is cut off at the deadline. A chunk that already finished
			// left a stale handle, which AbortFlow ignores.
			rt.fab.AbortFlow(inflight)
		})
	}
}

// schedule registers a scripted event firing: it counts toward Applied.
func (rt *Runtime) schedule(at float64, fn func()) {
	rt.pending = append(rt.pending, rt.eng.At(at, func() {
		rt.applied++
		fn()
	}))
}

// scheduleInternal registers runtime bookkeeping (impairment expiries,
// flap edges, stream deadlines) that should not count as a scripted
// event.
func (rt *Runtime) scheduleInternal(at float64, fn func()) {
	rt.pending = append(rt.pending, rt.eng.At(at, fn))
}

// Applied reports how many timeline events have fired so far.
func (rt *Runtime) Applied() int {
	if rt == nil {
		return 0
	}
	return rt.applied
}

// Stop cancels all pending timeline events and halts background-traffic
// generation; chunks already on the wire drain normally. Safe to call on
// a nil runtime and idempotent. It cancels every handle the runtime ever
// took: the engine ignores those whose events already fired, even when
// their records now carry other events.
func (rt *Runtime) Stop() {
	if rt == nil || rt.stopped {
		return
	}
	rt.stopped = true
	for _, ev := range rt.pending {
		rt.eng.Cancel(ev)
	}
	rt.pending = nil
}
