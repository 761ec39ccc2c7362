package topology_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"holmes/internal/scenario"
	"holmes/internal/topogen"
	"holmes/internal/topology"
)

// fmtFingerprint is the fmt.Fprintf formatter Fingerprint used to be.
// Journal names and cache-snapshot memo keys were derived from its
// bytes, so it stays here as the reference the strconv version must
// match byte for byte.
func fmtFingerprint(t *topology.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d", t.GPUsPerNode)
	for _, c := range t.Clusters {
		fmt.Fprintf(&b, "|%v:%d", c.NICType, len(c.Nodes))
		for _, n := range c.Nodes {
			fmt.Fprintf(&b, ";%v*%dx%g:%v:e%g:m%d",
				n.RDMAType(), len(n.NICs), n.RDMAGbps(), n.Intra, n.EthNIC.Gbps, n.MemBytesPerGPU)
		}
	}
	return b.String()
}

// TestFingerprintMatchesFmtFormatter compares Fingerprint with the fmt
// reference over every topogen shape, each shape's effective topology
// under a degraded NIC on every node and a failed node, and carves of
// every shape with fractional per-node factors — the slices the fleet
// replay fingerprints — including factors small and large enough that %g
// switches to exponent form.
func TestFingerprintMatchesFmtFormatter(t *testing.T) {
	shapes, err := topogen.Shapes(1, 120)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	check := func(label string, topo *topology.Topology) {
		t.Helper()
		checked++
		if got, want := topo.Fingerprint(), fmtFingerprint(topo); got != want {
			t.Fatalf("%s: fingerprint drifted from the fmt formatter:\n got %s\nwant %s", label, got, want)
		}
	}
	rng := rand.New(rand.NewSource(3))
	factors := []float64{0.37, 1.0 / 3, 1e-7, 1e21, 0.1 + 0.8*rng.Float64()}
	for _, s := range shapes {
		check(s.Label, s.Topo)
		n := s.Topo.NumNodes()
		for node := 0; node < n; node++ {
			for _, ev := range []scenario.Event{
				{Kind: scenario.DegradeNIC, Node: node, Class: scenario.ClassRDMA, Factor: factors[node%len(factors)]},
				{Kind: scenario.DegradeNIC, Node: node, Class: scenario.ClassEther, Factor: 0.1 + 0.8*rng.Float64()},
				{Kind: scenario.FailNode, Node: node},
			} {
				sc := &scenario.Scenario{Events: []scenario.Event{ev}}
				eff, _, err := sc.EffectiveTopology(s.Topo, math.Inf(1))
				if err != nil {
					continue // a failure that leaves no survivor
				}
				check(fmt.Sprintf("%s effective(%s n%d)", s.Label, ev.Kind, node), eff)
			}
		}
		var nodes []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 || i == n-1 {
				nodes = append(nodes, i)
			}
		}
		spec, err := s.Topo.CarveSpec(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range spec.Clusters {
			cs := &spec.Clusters[ci]
			for k := 0; k < cs.Nodes; k++ {
				ov := cs.Overrides[k]
				ov.GbpsPerNIC *= factors[rng.Intn(len(factors))]
				ov.EthGbps *= factors[rng.Intn(len(factors))]
				cs.Overrides[k] = ov
			}
		}
		sub, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%s carve%v", s.Label, nodes), sub)
	}
	if checked < 1000 {
		t.Fatalf("only %d topologies compared", checked)
	}
}

// TestFingerprintGolden pins two literal fingerprints printed by the fmt
// formatter, so a change to both the formatter and the reference above
// cannot pass unnoticed.
func TestFingerprintGolden(t *testing.T) {
	if got, want := topology.HybridEnv(2).Fingerprint(),
		"g8|InfiniBand:1;InfiniBand*4x800:NVLink:e25:m85899345920|RoCE:1;RoCE*2x400:NVLink:e25:m85899345920"; got != want {
		t.Errorf("Hybrid(2):\n got %s\nwant %s", got, want)
	}
	topo := topology.MustBuild(topology.Spec{
		Intra: topology.PCIe,
		Clusters: []topology.ClusterSpec{
			{NIC: topology.Ethernet, Nodes: 1},
			{NIC: topology.RoCE, Nodes: 2, Overrides: map[int]topology.NodeOverride{1: {GbpsPerNIC: 200.0 / 3, EthGbps: 2.5e-5}}},
		},
	})
	if got, want := topo.Fingerprint(),
		"g8|Ethernet:1;Ethernet*0x0:PCIe:e25:m85899345920|RoCE:2;RoCE*2x400:PCIe:e25:m85899345920;RoCE*2x133.33333333333334:PCIe:e2.5e-05:m85899345920"; got != want {
		t.Errorf("degraded PCIe fleet:\n got %s\nwant %s", got, want)
	}
}
