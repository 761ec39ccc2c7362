package scenario

import (
	"fmt"
	"math"
	"sort"

	"holmes/internal/netsim"
	"holmes/internal/topology"
)

// ValidateFor checks the topology-dependent invariants: every node and
// cluster an event names must exist. Call after Validate.
func (s *Scenario) ValidateFor(topo *topology.Topology) error {
	if s.Empty() {
		return nil
	}
	for i, ev := range s.Events {
		if err := ev.validateFor(i, topo); err != nil {
			return err
		}
	}
	return nil
}

// ValidateEvent checks one event as Validate and then ValidateFor check
// the i-th event of a timeline on topo, with the same error text: for a
// holder that appends events one at a time to a timeline it has already
// validated, and so need not re-check the rest.
func ValidateEvent(i int, ev Event, topo *topology.Topology) error {
	if err := ev.validate(); err != nil {
		return fmt.Errorf("scenario: event %d: %w", i, err)
	}
	return ev.validateFor(i, topo)
}

func (ev Event) validateFor(i int, topo *topology.Topology) error {
	nodes, clusters := topo.NumNodes(), topo.NumClusters()
	switch ev.Kind {
	case DegradeNIC, FailNode, RestoreNode, Delay, Jitter, Loss, Corrupt, FlapLink, Straggler:
		if ev.Node >= nodes {
			return fmt.Errorf("scenario: event %d: node %d outside topology (%d nodes)", i, ev.Node, nodes)
		}
	case BackgroundTraffic:
		if ev.Src >= nodes || ev.Dst >= nodes {
			return fmt.Errorf("scenario: event %d: background traffic %d->%d outside topology (%d nodes)", i, ev.Src, ev.Dst, nodes)
		}
	case JoinNodes, FailCluster:
		if ev.Cluster >= clusters {
			return fmt.Errorf("scenario: event %d: cluster %d outside topology (%d clusters)", i, ev.Cluster, clusters)
		}
	case Partition:
		if ev.Cluster >= clusters || ev.Peer >= clusters {
			return fmt.Errorf("scenario: event %d: partition %d|%d outside topology (%d clusters)", i, ev.Cluster, ev.Peer, clusters)
		}
	}
	return nil
}

// NodeState is the folded condition of one node at an instant.
type NodeState struct {
	// Failed marks the node dropped off the network.
	Failed bool
	// Cumulative capacity factors by class (1 = pristine). Consecutive
	// degrades and stragglers compound, mirroring netsim.DegradeNode
	// semantics; an active flap_link down-phase folds the fail residual
	// in.
	RDMAFactor, EthFactor, IntraFactor float64
	// Goodput efficiencies by class (1 = clean): the product of every
	// active loss/corrupt derate on the node, both directions. Delay and
	// jitter have no capacity-side representation here — they move the α
	// term on the bound fabric only.
	RDMAEff, EthEff, IntraEff float64
}

func pristineNode() NodeState {
	return NodeState{
		RDMAFactor: 1, EthFactor: 1, IntraFactor: 1,
		RDMAEff: 1, EthEff: 1, IntraEff: 1,
	}
}

// Factor returns the folded capacity factor of one link class.
func (ns NodeState) Factor(class netsim.Class) float64 {
	switch class {
	case netsim.RDMA:
		return ns.RDMAFactor
	case netsim.Ether:
		return ns.EthFactor
	default:
		return ns.IntraFactor
	}
}

func (ns *NodeState) mulFactor(class netsim.Class, f float64) {
	switch class {
	case netsim.RDMA:
		ns.RDMAFactor *= f
	case netsim.Ether:
		ns.EthFactor *= f
	default:
		ns.IntraFactor *= f
	}
}

func (ns *NodeState) mulEff(class netsim.Class, e float64) {
	switch class {
	case netsim.RDMA:
		ns.RDMAEff *= e
	case netsim.Ether:
		ns.EthEff *= e
	default:
		ns.IntraEff *= e
	}
}

// State is the folded condition of the whole timeline at an instant.
type State struct {
	// Nodes holds the state of every node an event has touched, keyed by
	// global node index; untouched nodes are pristine.
	Nodes map[int]NodeState
	// Joined counts extra nodes per cluster index.
	Joined map[int]int
	// FailedClusters marks clusters taken out by fail_cluster.
	FailedClusters map[int]bool
	// Cut marks cluster pairs (lower index first) whose trunk an active
	// partition has cut to the fail residual.
	Cut map[[2]int]bool
}

// Partitioned reports whether an active partition cuts the cluster pair.
func (st State) Partitioned(c1, c2 int) bool {
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	return st.Cut[[2]int{c1, c2}]
}

// activeAt reports whether an interval event (impairments, partition)
// covers the instant: started, and not yet past its optional Until.
func (ev Event) activeAt(at float64) bool {
	return ev.At <= at && (ev.Until == 0 || at < ev.Until)
}

// flapDown reports whether a flap_link event holds its link down at the
// instant. The candidate down-edges are computed with the exact float
// arithmetic the runtime uses to schedule them (At + k*cycle), so the
// fold and the fabric agree even at the edge instants themselves.
func flapDown(ev Event, at float64) bool {
	if at < ev.At || at >= ev.Until {
		return false
	}
	cycle := (ev.DownMs + ev.UpMs) / 1e3
	k := math.Floor((at - ev.At) / cycle)
	for _, kk := range []float64{k - 1, k, k + 1} {
		if kk < 0 {
			continue
		}
		down := ev.At + kk*cycle
		if at >= down && at < down+ev.DownMs/1e3 {
			return true
		}
	}
	return false
}

// impairTarget addresses one impaired link side in the fold, mirroring
// netsim's (node, class, direction) impairment keying.
type impairTarget struct {
	node    int
	class   netsim.Class
	inbound bool
}

// foldImpair folds every delay/jitter/loss/corrupt event active at the
// instant into absolute per-side impairments, in (At, declaration)
// order: delays and jitter amplitudes sum, loss/corrupt efficiencies
// multiply, and the latest active jitter event's distribution wins. The
// runtime pushes exactly these values into the fabric, so the folded
// view and the live fabric agree by construction.
func (s *Scenario) foldImpair(at float64) map[impairTarget]netsim.Impairment {
	m := make(map[impairTarget]netsim.Impairment)
	if s.Empty() {
		return m
	}
	for _, ev := range s.ordered() {
		if ev.At > at {
			break
		}
		switch ev.Kind {
		case Delay, Jitter, Loss, Corrupt:
		default:
			continue
		}
		if !ev.activeAt(at) {
			continue
		}
		class, err := ev.Class.netClass(netsim.Ether)
		if err != nil {
			continue // Validate rejects this; fold defensively
		}
		out, in, err := ev.dirs()
		if err != nil {
			continue
		}
		for _, inbound := range []bool{false, true} {
			if (inbound && !in) || (!inbound && !out) {
				continue
			}
			key := impairTarget{node: ev.Node, class: class, inbound: inbound}
			imp := m[key]
			switch ev.Kind {
			case Delay:
				imp.ExtraLatency += ev.DelayMs / 1e3
			case Jitter:
				imp.JitterSeconds += ev.JitterMs / 1e3
				imp.JitterDist = netsim.Dist(ev.Dist)
			default: // Loss, Corrupt
				eff := imp.Efficiency
				if eff <= 0 {
					eff = 1
				}
				imp.Efficiency = eff * (1 - ev.Pct/100)
			}
			m[key] = imp
		}
	}
	return m
}

// StateAt folds every event with At <= at, in (At, declaration) order,
// into the net node/cluster condition — the same order Bind applies them
// to a fabric, so both views of a timeline always agree. Point events
// (degrade, fail, restore, straggler, join, fail_cluster) fold first;
// interval effects (flap_link phases, partitions, impairment
// efficiencies) overlay afterwards, so a restore_node cannot erase a
// flap window that is still scripted to be down.
func (s *Scenario) StateAt(at float64) State {
	st := State{
		Nodes:          make(map[int]NodeState),
		Joined:         make(map[int]int),
		FailedClusters: make(map[int]bool),
		Cut:            make(map[[2]int]bool),
	}
	if s.Empty() {
		return st
	}
	node := func(idx int) NodeState {
		if ns, ok := st.Nodes[idx]; ok {
			return ns
		}
		return pristineNode()
	}
	ordered := s.ordered()
	for _, ev := range ordered {
		if ev.At > at {
			break
		}
		switch ev.Kind {
		case DegradeNIC:
			class, err := ev.Class.netClass(netsim.RDMA)
			if err != nil {
				continue // Validate rejects this; fold defensively
			}
			ns := node(ev.Node)
			ns.mulFactor(class, ev.Factor)
			st.Nodes[ev.Node] = ns
		case Straggler:
			ns := node(ev.Node)
			ns.mulFactor(netsim.RDMA, ev.Factor)
			ns.mulFactor(netsim.Ether, ev.Factor)
			st.Nodes[ev.Node] = ns
		case FailNode:
			ns := node(ev.Node)
			ns.Failed = true
			st.Nodes[ev.Node] = ns
		case RestoreNode:
			delete(st.Nodes, ev.Node)
		case JoinNodes:
			st.Joined[ev.Cluster] += ev.Count
		case FailCluster:
			st.FailedClusters[ev.Cluster] = true
		}
	}
	// Interval overlays: active flap down-phases and partitions.
	for _, ev := range ordered {
		if ev.At > at {
			break
		}
		switch ev.Kind {
		case FlapLink:
			if !flapDown(ev, at) {
				continue
			}
			class, err := ev.Class.netClass(netsim.RDMA)
			if err != nil {
				continue
			}
			ns := node(ev.Node)
			ns.mulFactor(class, netsim.FailResidual)
			st.Nodes[ev.Node] = ns
		case Partition:
			if !ev.activeAt(at) {
				continue
			}
			c1, c2 := ev.Cluster, ev.Peer
			if c1 > c2 {
				c1, c2 = c2, c1
			}
			st.Cut[[2]int{c1, c2}] = true
		}
	}
	// Impairment efficiencies: both directions of a node's class fold
	// into one goodput derate for the planner's capacity view.
	for key, imp := range s.foldImpair(at) {
		if imp.Efficiency <= 0 || imp.Efficiency == 1 {
			continue
		}
		ns := node(key.node)
		ns.mulEff(key.class, imp.Efficiency)
		st.Nodes[key.node] = ns
	}
	return st
}

// FailedNodes lists the global indices of nodes failed at the instant,
// ascending.
func (st State) FailedNodes() []int {
	var out []int
	for idx, ns := range st.Nodes {
		if ns.Failed {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// EffectiveSpec folds the timeline at the instant into a buildable
// topology spec: failed nodes and failed clusters are excluded, degraded
// or lossy nodes carry their reduced NIC line rates as per-node
// overrides (capacity factor × goodput efficiency), and joined nodes
// extend their cluster at its baseline configuration. Intra-node
// degradation has no topology-level representation (the planner treats
// NVLink/PCIe as fixed) and affects only the bound fabric; so do delay
// and jitter, which move the α term rather than capacity.
//
// The second return value lists the excluded nodes by original global
// index. Building the spec fails if no nodes survive.
func (s *Scenario) EffectiveSpec(topo *topology.Topology, at float64) (topology.Spec, []int, error) {
	st := s.StateAt(at)
	n0 := topo.Node(0)
	spec := topology.Spec{
		GPUsPerNode: topo.GPUsPerNode,
		GPUMemBytes: n0.MemBytesPerGPU,
		Intra:       n0.Intra,
		EthGbps:     n0.EthNIC.Gbps,
	}
	excludedSet := make(map[int]bool)
	for _, idx := range st.FailedNodes() {
		excludedSet[idx] = true
	}
	for _, c := range topo.Clusters {
		if st.FailedClusters[c.Index] {
			// Whole-switch blast radius: every node of the cluster is
			// gone, joined or not.
			for _, n := range c.Nodes {
				excludedSet[n.Index] = true
			}
			continue
		}
		base := c.Nodes[0]
		cs := topology.ClusterSpec{
			Name:        c.Name,
			NIC:         c.NICType,
			NICsPerNode: len(base.NICs),
			Overrides:   make(map[int]topology.NodeOverride),
		}
		if len(base.NICs) > 0 {
			cs.GbpsPerNIC = base.NICs[0].Gbps
		}
		pos := 0
		for _, n := range c.Nodes {
			ns, touched := st.Nodes[n.Index]
			if touched && ns.Failed {
				continue
			}
			if !touched {
				ns = pristineNode()
			}
			ov := topology.NodeOverride{EthGbps: n.EthNIC.Gbps * ns.EthFactor * ns.EthEff}
			if len(n.NICs) > 0 {
				ov.GbpsPerNIC = n.NICs[0].Gbps * ns.RDMAFactor * ns.RDMAEff
			}
			cs.Overrides[pos] = ov
			pos++
		}
		cs.Nodes = pos + st.Joined[c.Index]
		if cs.Nodes == 0 {
			// Every node of the cluster failed and none joined: the
			// cluster disappears from the effective topology.
			continue
		}
		spec.Clusters = append(spec.Clusters, cs)
	}
	excluded := make([]int, 0, len(excludedSet))
	for idx := range excludedSet {
		excluded = append(excluded, idx)
	}
	sort.Ints(excluded)
	if len(spec.Clusters) == 0 {
		return topology.Spec{}, excluded, fmt.Errorf("scenario: no nodes survive at t=%v", at)
	}
	return spec, excluded, nil
}

// EffectiveTopology builds the post-event topology at the instant; see
// EffectiveSpec.
func (s *Scenario) EffectiveTopology(topo *topology.Topology, at float64) (*topology.Topology, []int, error) {
	spec, excluded, err := s.EffectiveSpec(topo, at)
	if err != nil {
		return nil, excluded, err
	}
	eff, err := topology.Build(spec)
	if err != nil {
		return nil, excluded, fmt.Errorf("scenario: effective topology: %w", err)
	}
	return eff, excluded, nil
}
