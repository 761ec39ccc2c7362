package trainer

import (
	"math"
	"testing"

	"holmes/internal/model"
	"holmes/internal/topogen"
	"holmes/internal/topology"
)

// gpipeCell is one GPipe run whose iteration time is pinned bit for bit.
type gpipeCell struct {
	label          string
	topo           *topology.Topology
	group, tile, p int
	fw             Framework
	overlap        bool
	want           uint64 // math.Float64bits of IterSeconds
}

// TestGPipeIterSecondsGolden pins GPipe iteration times as literals, as
// TestFingerprintGolden pins fingerprints: no report golden runs GPipe,
// so a change to the executor's op choice would otherwise pass every
// test that compares GPipe only with itself. The cells cover Table-3
// environments and generated shapes, tensor degrees 1 to 4, and the
// overlapped optimizer.
func TestGPipeIterSecondsGolden(t *testing.T) {
	shapes, err := topogen.Shapes(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	env := func(e topology.EnvName, nodes int) *topology.Topology {
		topo, err := topology.Env(e, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	cells := []gpipeCell{
		{"hybrid8/g1/t1/p4", env(topology.EnvHybrid, 8), 1, 1, 4, Holmes, false, 0x401fd3f77bd14b56},
		{"hybrid8/g3/t2/p8+overlap", env(topology.EnvHybrid, 8), 3, 2, 8, Holmes, true, 0x40414433eb8c58ff},
		{"roce4/g3/t2/p2", env(topology.EnvRoCE, 4), 3, 2, 2, Holmes, false, 0x403f4d333a958bca},
		{"ethernet8/g1/t1/p8+overlap", env(topology.EnvEthernet, 8), 1, 1, 8, Holmes, true, 0x40307ef5d9ea5a7c},
		{"infiniband4/g3/t4/p4", env(topology.EnvInfiniBand, 4), 3, 4, 4, Holmes, false, 0x403ede91032d8fba},
		{"shape0/t2/p5", shapes[0].Topo, shapes[0].Group, 2, 5, AllFrameworks[0], false, 0x4041b1869e988898},
		{"shape1/t2/p2+overlap", shapes[1].Topo, shapes[1].Group, 2, 2, AllFrameworks[1], true, 0x403d66aa5c11ad64},
		{"shape2/t4/p1", shapes[2].Topo, shapes[2].Group, 4, 1, AllFrameworks[2], false, 0x40607a419e0d0bac},
		{"shape3/t1/p3", shapes[3].Topo, shapes[3].Group, 1, 3, AllFrameworks[3%len(AllFrameworks)], true, 0x40377ea9d5cdfb56},
	}
	for _, c := range cells {
		opt := DefaultOptions(c.fw)
		opt.GPipeSchedule, opt.OverlappedOptimizer = true, c.overlap
		rep, err := Simulate(Config{
			Topo: c.topo, Spec: model.Group(c.group).Spec,
			TensorSize: c.tile, PipelineSize: c.p, Framework: c.fw, Opt: &opt,
		})
		if err != nil {
			t.Errorf("%s: %v", c.label, err)
			continue
		}
		if got := math.Float64bits(rep.IterSeconds); got != c.want {
			t.Errorf("%s: IterSeconds %v (%#x), want %v (%#x)", c.label, rep.IterSeconds, got, math.Float64frombits(c.want), c.want)
		}
	}
}
