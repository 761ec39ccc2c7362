package topogen

import (
	"reflect"
	"testing"

	"holmes/internal/topology"
)

// TestShapesCoverTheirSpace pins the seed the property tests draw from
// to the variety they claim: every technology, more than one cluster
// with a non-InfiniBand cluster first, uneven cluster sizes, PCIe nodes
// and a degraded node. It also pins determinism.
func TestShapesCoverTheirSpace(t *testing.T) {
	shapes, err := Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	nics := map[topology.NICType]bool{}
	var notIBFirst, uneven, pcie, degraded bool
	for i, sh := range shapes {
		if sh.Label != again[i].Label || sh.Topo.Fingerprint() != again[i].Topo.Fingerprint() {
			t.Fatalf("shape %d differs between draws of one seed: %s vs %s", i, sh.Label, again[i].Label)
		}
		if n := sh.Topo.NumNodes(); n < 2 || n > 6 {
			t.Fatalf("%s: %d nodes, want 2–6", sh.Label, n)
		}
		cs := sh.Topo.Clusters
		for _, c := range cs {
			nics[c.NICType] = true
			if len(c.Nodes) != len(cs[0].Nodes) {
				uneven = true
			}
		}
		if len(cs) > 1 && cs[0].NICType != topology.InfiniBand {
			notIBFirst = true
		}
		if sh.Topo.Node(0).Intra == topology.PCIe {
			pcie = true
		}
		for _, n := range sh.Topo.Nodes() {
			if !reflect.DeepEqual(n.NICs, sh.Topo.Clusters[n.Cluster].Nodes[0].NICs) ||
				n.EthNIC != sh.Topo.Nodes()[0].EthNIC {
				degraded = true
			}
		}
	}
	if len(nics) != 3 || !notIBFirst || !uneven || !pcie || !degraded {
		t.Fatalf("seed 16 misses part of the space: technologies %v, non-IB-first %v, uneven %v, PCIe %v, degraded %v",
			nics, notIBFirst, uneven, pcie, degraded)
	}
}
