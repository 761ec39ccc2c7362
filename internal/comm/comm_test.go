package comm

import (
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/topology"
)

// hybridWorld builds the canonical Holmes configuration: hybrid 8-node
// topology (4 IB + 4 RoCE), t=1, p=2 (one stage per cluster), d=32.
func hybridWorld(t *testing.T, sel Selection) *World {
	t.Helper()
	topo := topology.HybridEnv(8)
	a, err := parallel.New(64, 8, parallel.Degrees{T: 1, P: 2, D: 32})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, sel)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAutoSelectionPicksPerClusterRDMA(t *testing.T) {
	w := hybridWorld(t, AutoSelection)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	var ib, roce int
	for _, g := range w.DPGroups {
		switch g.NIC {
		case topology.InfiniBand:
			ib++
		case topology.RoCE:
			roce++
		default:
			t.Fatalf("DP group %d selected %v", g.Index, g.NIC)
		}
		if g.Class != netsim.RDMA {
			t.Fatalf("DP group %d class = %v", g.Index, g.Class)
		}
	}
	// p·t = 2 DP groups: stage 0 in the IB cluster, stage 1 in RoCE.
	if ib != 1 || roce != 1 {
		t.Fatalf("DP NICs: %d IB + %d RoCE, want 1+1", ib, roce)
	}
}

func TestPipelineGroupsUseEthernetAcrossClusters(t *testing.T) {
	w := hybridWorld(t, AutoSelection)
	for _, g := range w.PPGroups {
		if g.NIC != topology.Ethernet || g.Class != netsim.Ether {
			t.Fatalf("pipeline group %d got %v/%v, want Ethernet", g.Index, g.NIC, g.Class)
		}
	}
}

func TestUnifiedSelectionCollapsesToEthernet(t *testing.T) {
	w := hybridWorld(t, UnifiedSelection)
	for _, g := range w.DPGroups {
		if !g.CrossNode {
			continue
		}
		if g.NIC != topology.Ethernet {
			t.Fatalf("unified DP group %d got %v, want Ethernet (mixed IB+RoCE world)", g.Index, g.NIC)
		}
	}
}

func TestUnifiedSelectionKeepsRDMAWhenHomogeneous(t *testing.T) {
	topo := topology.IBEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 1, P: 2, D: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, UnifiedSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.DPGroups {
		if g.CrossNode && g.NIC != topology.InfiniBand {
			t.Fatalf("homogeneous unified world should use IB, got %v", g.NIC)
		}
	}
}

func TestTensorGroupsStayIntraNode(t *testing.T) {
	topo := topology.HybridEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 8, P: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.TPGroups {
		if g.CrossNode {
			t.Fatalf("tensor group %d crosses nodes: %v", g.Index, g.Ranks)
		}
		if g.Class != netsim.Intra {
			t.Fatalf("tensor group %d class = %v, want Intra", g.Index, g.Class)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWorldSizeMismatch(t *testing.T) {
	topo := topology.IBEnv(2)
	a, _ := parallel.New(8, 8, parallel.Degrees{T: 1, P: 2, D: 4})
	if _, err := BuildWorld(topo, a, AutoSelection); err == nil {
		t.Fatal("16-device topology with 8-rank assignment must fail")
	}
}

func TestGroupCountsMatchFormalization(t *testing.T) {
	// §2.4: t·d pipeline groups, p·d tensor groups, p·t data groups.
	topo := topology.HybridEnv(4)
	deg := parallel.Degrees{T: 2, P: 4, D: 4}
	a, err := parallel.New(32, 8, deg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.PPGroups) != deg.T*deg.D {
		t.Fatalf("pipeline groups = %d, want %d", len(w.PPGroups), deg.T*deg.D)
	}
	if len(w.TPGroups) != deg.P*deg.D {
		t.Fatalf("tensor groups = %d, want %d", len(w.TPGroups), deg.P*deg.D)
	}
	if len(w.DPGroups) != deg.P*deg.T {
		t.Fatalf("data groups = %d, want %d", len(w.DPGroups), deg.P*deg.T)
	}
}

func TestKindAndGroupStrings(t *testing.T) {
	if TP.String() != "tensor" || PP.String() != "pipeline" || DP.String() != "data" {
		t.Fatal("kind names wrong")
	}
	g := &Group{Kind: DP, Index: 3, Ranks: []int{1, 2}, NIC: topology.RoCE}
	if got := g.String(); got != "data[3] [1 2] via RoCE" {
		t.Fatalf("Group.String() = %q", got)
	}
}

func TestEthernetOnlyWorld(t *testing.T) {
	topo := topology.EthernetEnv(4)
	a, err := parallel.New(32, 8, parallel.Degrees{T: 1, P: 2, D: 16})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.DPGroups {
		if g.CrossNode && g.NIC != topology.Ethernet {
			t.Fatalf("ethernet-only world gave %v", g.NIC)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// worldOf builds the auto-selected world for degrees on a topology.
func worldOf(t *testing.T, topo *topology.Topology, deg parallel.Degrees) *World {
	t.Helper()
	a, err := parallel.New(topo.NumDevices(), topo.GPUsPerNode, deg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorld(topo, a, AutoSelection)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGroupNIC(t *testing.T) {
	topo := topology.HybridEnv(4) // 2 IB nodes (ranks 0-15) + 2 RoCE (16-31)
	w := worldOf(t, topo, parallel.Degrees{T: 8, P: 2, D: 2})
	// Within one node: no NIC needed.
	if g := w.TPGroups[0]; g.CrossNode || g.NIC != topology.InfiniBand || g.Class != netsim.Intra {
		t.Fatalf("single-node group %v: cross %v class %v", g, g.CrossNode, g.Class)
	}
	// Across IB nodes, and across RoCE nodes: each cluster's own RDMA.
	for _, tc := range []struct {
		rank int
		nic  topology.NICType
	}{{0, topology.InfiniBand}, {16, topology.RoCE}} {
		g := w.DPGroups[w.Assign.DPRow(tc.rank)]
		if !g.CrossNode || g.NIC != tc.nic || g.Class != netsim.RDMA {
			t.Fatalf("DP group %v of rank %d: cross %v class %v, want %v over RDMA", g, tc.rank, g.CrossNode, g.Class, tc.nic)
		}
	}
	// Across clusters: Ethernet.
	w = worldOf(t, topo, parallel.Degrees{T: 1, P: 1, D: 32})
	if g := w.DPGroups[0]; g.NIC != topology.Ethernet || g.Class != netsim.Ether {
		t.Fatalf("cross-cluster group %v: class %v, want Ethernet", g, g.Class)
	}
}

func TestNaiveAssignmentSplitsDPGroups(t *testing.T) {
	// Counterpoint to cross-cluster PP: with pipeline degree 1 on a hybrid
	// topology, DP groups necessarily span clusters and lose RDMA. This is
	// the Megatron-LM failure mode Holmes fixes.
	topo := topology.HybridEnv(2) // 1 IB node + 1 RoCE node = 16 ranks
	w := worldOf(t, topo, parallel.Degrees{T: 1, P: 1, D: 16})
	g := w.DPGroups[0]
	if !topo.NodeOf(g.Ranks[0]).RDMAType().IsRDMA() || !g.CrossNode {
		t.Fatalf("DP group %v should start on an RDMA node and cross nodes", g)
	}
	if g.NIC != topology.Ethernet || g.Class != netsim.Ether {
		t.Fatalf("heterogeneous DP group NIC = %v/%v, want Ethernet", g.NIC, g.Class)
	}
}
