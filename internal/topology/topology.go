// Package topology models the hardware landscape Holmes schedules over:
// clusters of nodes, nodes of GPU devices, the NICs that connect nodes, and
// the intra-node interconnect (NVLink / PCIe).
//
// The package implements the formalization of §2.4 of the paper: M clusters
// c_1..c_M, cluster c_i holding f_i nodes, every node holding G devices, and
// the global rank numbering
//
//	rank = G*((Σ_{a<i} f_a) + k-1) + j
//
// for the j-th device of the k-th node of the i-th cluster (1-based).
package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// NICType enumerates the network interface technologies in the paper.
type NICType int

const (
	// Ethernet is the 25 Gb/s commodity fallback every node has.
	Ethernet NICType = iota
	// InfiniBand is 200 Gb/s RDMA (dedicated fabric).
	InfiniBand
	// RoCE is 200 Gb/s RDMA over Converged Ethernet.
	RoCE
)

// String returns the conventional name of the NIC technology.
func (t NICType) String() string {
	switch t {
	case Ethernet:
		return "Ethernet"
	case InfiniBand:
		return "InfiniBand"
	case RoCE:
		return "RoCE"
	default:
		return fmt.Sprintf("NICType(%d)", int(t))
	}
}

// IsRDMA reports whether the NIC supports remote direct memory access.
// InfiniBand and RoCE are RDMA-capable but mutually incompatible (§1).
func (t NICType) IsRDMA() bool { return t == InfiniBand || t == RoCE }

// Compatible reports whether two NIC technologies can talk to each other
// directly. InfiniBand and RoCE are incompatible; Ethernet only talks to
// Ethernet. Every node also carries an Ethernet NIC, so Ethernet is the
// universal (slow) fallback.
func Compatible(a, b NICType) bool { return a == b }

// LinkType enumerates intra-node GPU interconnects.
type LinkType int

const (
	// NVLink (A100: 600 GB/s aggregate, ~300 GB/s per direction usable).
	// NVLink is the zero value: HGX nodes are the default platform.
	NVLink LinkType = iota
	// PCIe gen4 x16, ~32 GB/s per direction.
	PCIe
)

// String returns the conventional name of the link technology.
func (l LinkType) String() string {
	if l == NVLink {
		return "NVLink"
	}
	return "PCIe"
}

// NIC describes one physical network interface card on a node.
type NIC struct {
	Type NICType
	// GbpsPerPort is the line rate of the card in gigabits per second.
	Gbps float64
}

// Device is a single GPU.
type Device struct {
	// Rank is the global rank per the paper's numbering (0-based here; the
	// paper writes 1-based subscripts but enumerates ranks from 0).
	Rank int
	// Node and Cluster identify the containing node/cluster by index.
	Node    int
	Cluster int
	// Local is the index of the device within its node (0..G-1).
	Local int
}

// Node is a host with G GPU devices and a set of NICs.
type Node struct {
	// Index is the global node index (0-based, ordered cluster by cluster).
	Index int
	// Cluster is the index of the owning cluster.
	Cluster int
	// Devices are the GPUs in local order.
	Devices []*Device
	// NICs are the high-speed cards; every node additionally has EthNIC.
	NICs []NIC
	// EthNIC is the always-present Ethernet card.
	EthNIC NIC
	// Intra is the intra-node GPU interconnect.
	Intra LinkType
	// MemBytesPerGPU is the device memory of each GPU (DMem in Eq. 5 terms).
	MemBytesPerGPU int64
}

// RDMAType returns the node's RDMA NIC technology, or Ethernet if it has
// none.
func (n *Node) RDMAType() NICType {
	for _, nic := range n.NICs {
		if nic.Type.IsRDMA() {
			return nic.Type
		}
	}
	return Ethernet
}

// RDMAGbps returns the aggregate RDMA bandwidth of the node in Gb/s (sum
// over its RDMA NICs), or 0 if it has none.
func (n *Node) RDMAGbps() float64 {
	var g float64
	for _, nic := range n.NICs {
		if nic.Type.IsRDMA() {
			g += nic.Gbps
		}
	}
	return g
}

// Cluster is a set of nodes sharing one RDMA fabric (or none).
type Cluster struct {
	// Index is the cluster index (0-based; the paper's c_{i+1}).
	Index int
	// Name is a human-readable label, e.g. "IB-Cluster1".
	Name string
	// NICType is the RDMA technology of the cluster's nodes (Ethernet if
	// the cluster has no RDMA fabric).
	NICType NICType
	// Nodes are the member nodes in order.
	Nodes []*Node
}

// NumDevices returns the number of GPUs in the cluster.
func (c *Cluster) NumDevices() int {
	n := 0
	for _, nd := range c.Nodes {
		n += len(nd.Devices)
	}
	return n
}

// Topology is the complete hardware landscape of a training job.
type Topology struct {
	Clusters []*Cluster
	// nodes and devices flattened in global order.
	nodes   []*Node
	devices []*Device
	// GPUsPerNode is G: constant across nodes per §2.4.
	GPUsPerNode int
}

// NumClusters returns M.
func (t *Topology) NumClusters() int { return len(t.Clusters) }

// NumNodes returns the total node count Σ f_i.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumDevices returns N = G·Σ f_i.
func (t *Topology) NumDevices() int { return len(t.devices) }

// Nodes returns all nodes in global order.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Devices returns all devices in global rank order.
func (t *Topology) Devices() []*Device { return t.devices }

// Device returns the device with the given global rank.
func (t *Topology) Device(rank int) *Device {
	if rank < 0 || rank >= len(t.devices) {
		panic(fmt.Sprintf("topology: rank %d out of range [0,%d)", rank, len(t.devices)))
	}
	return t.devices[rank]
}

// Node returns the node with the given global index.
func (t *Topology) Node(idx int) *Node {
	if idx < 0 || idx >= len(t.nodes) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", idx, len(t.nodes)))
	}
	return t.nodes[idx]
}

// NodeOf returns the node containing the given global rank.
func (t *Topology) NodeOf(rank int) *Node {
	return t.nodes[t.Device(rank).Node]
}

// SameNode reports whether two ranks live on one node (tensor-parallel
// domain).
func (t *Topology) SameNode(a, b int) bool {
	return t.Device(a).Node == t.Device(b).Node
}

// SameCluster reports whether two ranks live in one cluster (RDMA domain).
func (t *Topology) SameCluster(a, b int) bool {
	return t.Device(a).Cluster == t.Device(b).Cluster
}

// Rank implements the paper's global numbering: the j-th device (0-based)
// of the k-th node (0-based) of the i-th cluster (0-based).
func (t *Topology) Rank(cluster, node, device int) int {
	base := 0
	for i := 0; i < cluster; i++ {
		base += len(t.Clusters[i].Nodes)
	}
	return t.GPUsPerNode*(base+node) + device
}

// BestCommonNIC returns the fastest NIC technology usable between two
// ranks' nodes: the shared RDMA technology if both nodes are in clusters
// with compatible RDMA NICs, else Ethernet. Ranks on the same node
// communicate over the intra-node link and are not covered here.
func (t *Topology) BestCommonNIC(a, b int) NICType {
	na, nb := t.NodeOf(a), t.NodeOf(b)
	ta, tb := na.RDMAType(), nb.RDMAType()
	if ta.IsRDMA() && Compatible(ta, tb) && t.SameCluster(a, b) {
		return ta
	}
	return Ethernet
}

// String renders a compact description of the topology.
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology: %d cluster(s), %d node(s), %d GPU(s)\n",
		t.NumClusters(), t.NumNodes(), t.NumDevices())
	for _, c := range t.Clusters {
		fmt.Fprintf(&b, "  %s [%s]: %d node(s) × %d GPU(s)\n",
			c.Name, c.NICType, len(c.Nodes), t.GPUsPerNode)
	}
	return b.String()
}

// Fingerprint returns a stable structural identity for the topology:
// equal cluster/node/NIC/memory layouts yield equal fingerprints even for
// independently built values. Plan and world caches key on it, so it must
// cover everything communicator construction and the fabric read.
//
// The bytes are persisted, so the format is frozen: journal file names
// are the FNV-64a hash of the fingerprint, and cache-snapshot memo
// entries store it. The layout is "g<G>", then
// "|<NIC>:<nodes>" per cluster, then
// ";<RDMA NIC>*<NICs>x<RDMA Gbps>:<intra>:e<Eth Gbps>:m<mem bytes>" per
// node. Floats print in strconv's shortest 'g' form, which is what fmt's
// %g prints, and which keeps the non-integral Gbps of degraded effective
// topologies distinct. The fleet replay fingerprints candidate slices at
// every instant, so this appends into one buffer instead of using fmt.
func (t *Topology) Fingerprint() string {
	b := make([]byte, 0, 16+16*len(t.Clusters)+48*t.NumNodes())
	b = append(b, 'g')
	b = strconv.AppendInt(b, int64(t.GPUsPerNode), 10)
	for _, c := range t.Clusters {
		b = append(b, '|')
		b = append(b, c.NICType.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(c.Nodes)), 10)
		for _, n := range c.Nodes {
			b = append(b, ';')
			b = append(b, n.RDMAType().String()...)
			b = append(b, '*')
			b = strconv.AppendInt(b, int64(len(n.NICs)), 10)
			b = append(b, 'x')
			b = strconv.AppendFloat(b, n.RDMAGbps(), 'g', -1, 64)
			b = append(b, ':')
			b = append(b, n.Intra.String()...)
			b = append(b, ":e"...)
			b = strconv.AppendFloat(b, n.EthNIC.Gbps, 'g', -1, 64)
			b = append(b, ":m"...)
			b = strconv.AppendInt(b, n.MemBytesPerGPU, 10)
		}
	}
	return string(b)
}

// Validate checks the §2.4 structural invariants: at least one cluster,
// every node holds exactly G devices, ranks are dense and ordered.
func (t *Topology) Validate() error {
	if len(t.Clusters) == 0 {
		return fmt.Errorf("topology: no clusters")
	}
	if t.GPUsPerNode <= 0 {
		return fmt.Errorf("topology: GPUsPerNode = %d", t.GPUsPerNode)
	}
	want := 0
	for ci, c := range t.Clusters {
		if c.Index != ci {
			return fmt.Errorf("topology: cluster %d has index %d", ci, c.Index)
		}
		if len(c.Nodes) == 0 {
			return fmt.Errorf("topology: cluster %d (%s) empty", ci, c.Name)
		}
		for _, n := range c.Nodes {
			if len(n.Devices) != t.GPUsPerNode {
				return fmt.Errorf("topology: node %d has %d devices, want %d",
					n.Index, len(n.Devices), t.GPUsPerNode)
			}
			for j, d := range n.Devices {
				if d.Rank != want {
					return fmt.Errorf("topology: device rank %d, want %d", d.Rank, want)
				}
				if d.Local != j || d.Node != n.Index || d.Cluster != ci {
					return fmt.Errorf("topology: device %d has inconsistent coordinates", d.Rank)
				}
				want++
			}
		}
	}
	return nil
}
