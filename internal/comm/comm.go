// Package comm establishes communication groups ("communicators") for the
// parallel groups of an assignment, implementing the paper's Automatic NIC
// Selection (§3.2):
//
//   - every tensor-parallel group gets an intra-node channel (NVLink/PCIe);
//   - every pipeline-parallel group gets an Ethernet channel between
//     stages (the only technology that crosses cluster boundaries);
//   - every data-parallel group gets an independent channel on the RDMA
//     fabric of the cluster it lives in — IB groups pick IB, RoCE groups
//     pick RoCE — rather than one unified (lowest-common-denominator)
//     environment for all groups.
//
// The traditional behaviour of Megatron-LM and Megatron-DeepSpeed — a
// single communication environment shared by every group, which collapses
// to Ethernet as soon as any pair of devices lacks a common RDMA fabric —
// is retained as a baseline via BuildWorld(..., UnifiedSelection).
package comm

import (
	"fmt"

	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/topology"
)

// Kind labels the parallelism a group serves.
type Kind int

const (
	TP Kind = iota
	PP
	DP
)

// String names the group kind.
func (k Kind) String() string {
	switch k {
	case TP:
		return "tensor"
	case PP:
		return "pipeline"
	case DP:
		return "data"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Selection is the NIC-selection policy.
type Selection int

const (
	// AutoSelection is Holmes's per-group Automatic NIC Selection.
	AutoSelection Selection = iota
	// UnifiedSelection is the traditional single-environment policy: every
	// group uses the one technology all devices share.
	UnifiedSelection
)

// Group is one communicator: a parallel group bound to a network class.
type Group struct {
	Kind  Kind
	Index int
	Ranks []int
	// NIC is the technology the channel was established on.
	NIC topology.NICType
	// Class is the netsim class flows of this group use.
	Class netsim.Class
	// CrossNode reports whether the group leaves a node at all.
	CrossNode bool
}

func (g *Group) String() string {
	return fmt.Sprintf("%s[%d] %v via %v", g.Kind, g.Index, g.Ranks, g.NIC)
}

// World is the full set of communicators for a job.
type World struct {
	Topo      *topology.Topology
	Assign    *parallel.Assignment
	Selection Selection
	TPGroups  []*Group
	PPGroups  []*Group
	DPGroups  []*Group
}

// BuildWorld creates communicators for every parallel group under the
// given NIC-selection policy.
func BuildWorld(topo *topology.Topology, a *parallel.Assignment, sel Selection) (*World, error) {
	if topo.NumDevices() != a.N {
		return nil, fmt.Errorf("comm: topology N=%d, assignment N=%d", topo.NumDevices(), a.N)
	}
	w := &World{Topo: topo, Assign: a, Selection: sel}
	unified := unifiedNIC(topo)
	// Every group and its copy of the ranks is carved from two arrays:
	// the three kinds each hold every rank once.
	b := &groupBuilder{
		groups: make([]Group, len(a.TP)+len(a.PP)+len(a.DP)),
		ranks:  make([]int, 3*a.N),
	}
	w.TPGroups = make([]*Group, 0, len(a.TP))
	w.PPGroups = make([]*Group, 0, len(a.PP))
	w.DPGroups = make([]*Group, 0, len(a.DP))
	for i, ranks := range a.TP {
		w.TPGroups = append(w.TPGroups, b.build(topo, TP, i, ranks, sel, unified))
	}
	for i, ranks := range a.PP {
		g := b.build(topo, PP, i, ranks, sel, unified)
		if sel == AutoSelection && g.CrossNode {
			// §3.2: pipeline channels are established on Ethernet — the
			// universal technology — so stages may cross clusters freely.
			// (Within one cluster the fabric would allow RDMA, but the
			// pipeline's low communication volume does not repay burning
			// RDMA credits; Holmes reserves RDMA for data parallelism.)
			if !sameCluster(topo, ranks) {
				g.NIC = topology.Ethernet
				g.Class = netsim.Ether
			}
		}
		w.PPGroups = append(w.PPGroups, g)
	}
	for i, ranks := range a.DP {
		w.DPGroups = append(w.DPGroups, b.build(topo, DP, i, ranks, sel, unified))
	}
	return w, nil
}

// groupBuilder hands out a world's groups and their rank copies from
// arrays sized up front.
type groupBuilder struct {
	groups []Group
	ranks  []int
}

func (b *groupBuilder) build(topo *topology.Topology, kind Kind, idx int, ranks []int, sel Selection, unified topology.NICType) *Group {
	nic, cross := groupNIC(topo, ranks)
	g := &b.groups[0]
	b.groups = b.groups[1:]
	*g = Group{Kind: kind, Index: idx, Ranks: b.ranks[:len(ranks):len(ranks)], CrossNode: cross}
	b.ranks = b.ranks[len(ranks):]
	copy(g.Ranks, ranks)
	if !cross {
		// Intra-node traffic rides NVLink/PCIe regardless of policy.
		g.NIC = topo.NodeOf(ranks[0]).RDMAType()
		g.Class = netsim.Intra
		return g
	}
	if sel == UnifiedSelection {
		nic = unified
	}
	g.NIC = nic
	if nic.IsRDMA() {
		g.Class = netsim.RDMA
	} else {
		g.Class = netsim.Ether
	}
	return g
}

// groupNIC reports the NIC technology a group can use: the common RDMA
// type when all members sit in one cluster with one compatible RDMA
// fabric, Ethernet otherwise. A single-node group needs no NIC: it
// reports crossNode false and its node's RDMA type.
func groupNIC(topo *topology.Topology, group []int) (nic topology.NICType, crossNode bool) {
	if len(group) == 0 {
		panic("comm: empty group")
	}
	first := group[0]
	for _, r := range group[1:] {
		if !topo.SameNode(first, r) {
			crossNode = true
			break
		}
	}
	if !crossNode {
		return topo.NodeOf(first).RDMAType(), false
	}
	nic = topo.NodeOf(first).RDMAType()
	for _, r := range group[1:] {
		other := topo.NodeOf(r).RDMAType()
		if !nic.IsRDMA() || !topology.Compatible(nic, other) || !topo.SameCluster(first, r) {
			return topology.Ethernet, true
		}
	}
	return nic, true
}

// unifiedNIC returns the single technology a traditional framework would
// pick for the whole world: the common RDMA type if every node shares one,
// Ethernet otherwise. This is the §3.2 failure mode: "communication
// between the two devices is limited to Ethernet, failing to fully utilize
// high-speed NICs".
func unifiedNIC(topo *topology.Topology) topology.NICType {
	first := topo.Nodes()[0].RDMAType()
	if !first.IsRDMA() {
		return topology.Ethernet
	}
	for _, n := range topo.Nodes()[1:] {
		if n.RDMAType() != first {
			return topology.Ethernet
		}
	}
	return first
}

func sameCluster(topo *topology.Topology, ranks []int) bool {
	for _, r := range ranks[1:] {
		if !topo.SameCluster(ranks[0], r) {
			return false
		}
	}
	return true
}

// M1Boundary implements the paper's cluster numbering convention: clusters
// are ordered so that IB clusters come first; M1 is the count of IB
// clusters, and a DP group selects IB iff its cluster index < M1. It
// verifies the topology obeys the ordering and returns M1.
func M1Boundary(topo *topology.Topology) (int, error) {
	m1 := 0
	seenNonIB := false
	for _, c := range topo.Clusters {
		if c.NICType == topology.InfiniBand {
			if seenNonIB {
				return 0, fmt.Errorf("comm: clusters not ordered IB-first (cluster %d is IB after non-IB)", c.Index)
			}
			m1++
		} else {
			seenNonIB = true
		}
	}
	return m1, nil
}

// Validate checks the §3.2 postconditions of an auto-selected world:
// DP groups on RDMA wherever their cluster provides it, cross-cluster PP
// on Ethernet, TP within nodes.
func (w *World) Validate() error {
	for _, g := range w.TPGroups {
		if g.CrossNode {
			return fmt.Errorf("comm: tensor group %d crosses nodes", g.Index)
		}
	}
	if w.Selection != AutoSelection {
		return nil
	}
	for _, g := range w.DPGroups {
		if !g.CrossNode {
			continue
		}
		clusterNIC := w.Topo.NodeOf(g.Ranks[0]).RDMAType()
		if sameCluster(w.Topo, g.Ranks) && clusterNIC.IsRDMA() && g.NIC != clusterNIC {
			return fmt.Errorf("comm: data group %d in %v cluster got %v", g.Index, clusterNIC, g.NIC)
		}
	}
	for _, g := range w.PPGroups {
		if g.CrossNode && !sameCluster(w.Topo, g.Ranks) && g.NIC != topology.Ethernet {
			return fmt.Errorf("comm: cross-cluster pipeline group %d got %v", g.Index, g.NIC)
		}
	}
	return nil
}
