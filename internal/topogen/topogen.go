// Package topogen draws seeded heterogeneous topologies for property
// tests. The planner's pruned-versus-exhaustive differential and the
// iteration bound's admissibility check draw from the same generator, so
// both cover the same shapes: clusters of any NIC technology in any
// order, uneven cluster sizes, PCIe nodes, and effective topologies left
// behind by a degraded NIC.
package topogen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// Shape is one drawn topology with the parameter group to plan on it.
type Shape struct {
	// Label describes the draw: cluster technologies and sizes, the
	// intra-node link, and any degraded node.
	Label string
	Topo  *topology.Topology
	// Group is the model parameter group (model.Group) to plan.
	Group int
}

// Shapes draws n shapes from a seed; the same seed yields the same
// shapes.
func Shapes(seed int64, n int) ([]Shape, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Shape, 0, n)
	for i := 0; i < n; i++ {
		s, err := draw(rng)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

var nics = []topology.NICType{topology.InfiniBand, topology.RoCE, topology.Ethernet}

// draw draws one shape: 2–6 nodes split unevenly over 1–3 clusters, each
// cluster InfiniBand, RoCE or Ethernet in any order; NVLink or, one time
// in three, PCIe nodes; and, one time in three, the effective topology
// after a degrade_nic event scales one node's RDMA or Ethernet NIC.
func draw(rng *rand.Rand) (Shape, error) {
	nodes := 2 + rng.Intn(5)
	clusters := 1 + rng.Intn(3)
	if clusters > nodes {
		clusters = nodes
	}
	// Every cluster gets one node; the rest land anywhere.
	sizes := make([]int, clusters)
	for i := range sizes {
		sizes[i] = 1
	}
	for i := clusters; i < nodes; i++ {
		sizes[rng.Intn(clusters)]++
	}
	spec := topology.Spec{}
	var label []string
	for _, n := range sizes {
		nic := nics[rng.Intn(len(nics))]
		spec.Clusters = append(spec.Clusters, topology.ClusterSpec{NIC: nic, Nodes: n})
		label = append(label, fmt.Sprintf("%vx%d", nic, n))
	}
	if rng.Intn(3) == 0 {
		spec.Intra = topology.PCIe
		label = append(label, "PCIe")
	}
	topo, err := topology.Build(spec)
	if err != nil {
		return Shape{}, err
	}
	if rng.Intn(3) == 0 {
		ev := scenario.Event{
			Kind:   scenario.DegradeNIC,
			Node:   rng.Intn(nodes),
			Factor: 0.1 + 0.8*rng.Float64(),
			Class:  scenario.ClassRDMA,
		}
		if rng.Intn(2) == 0 {
			ev.Class = scenario.ClassEther
		}
		sc := &scenario.Scenario{Events: []scenario.Event{ev}}
		if topo, _, err = sc.EffectiveTopology(topo, math.Inf(1)); err != nil {
			return Shape{}, err
		}
		label = append(label, fmt.Sprintf("degrade(n%d,%s,%.2f)", ev.Node, ev.Class, ev.Factor))
	}
	group := 1 + rng.Intn(4)
	return Shape{
		Label: strings.Join(label, "+") + fmt.Sprintf("+group%d", group),
		Topo:  topo,
		Group: group,
	}, nil
}
