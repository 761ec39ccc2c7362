package netsim

import (
	"math"
	"testing"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

func TestSetImpairmentValidation(t *testing.T) {
	topo := topology.IBEnv(2)
	_, fab := newFab(t, topo)
	bad := []Impairment{
		{ExtraLatency: -1},
		{ExtraLatency: math.NaN()},
		{JitterSeconds: -1e-6},
		{JitterSeconds: 1e-6, JitterDist: "zipf"},
		{Efficiency: -0.1},
		{Efficiency: 1.5},
	}
	for _, imp := range bad {
		if err := fab.SetImpairment(0, Ether, false, imp); err == nil {
			t.Fatalf("impairment %+v accepted", imp)
		}
	}
	if err := fab.SetImpairment(99, Ether, false, Impairment{ExtraLatency: 1e-6}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := fab.SetImpairment(0, Ether, false, Impairment{ExtraLatency: 1e-6, Efficiency: 0.5}); err != nil {
		t.Fatalf("valid impairment rejected: %v", err)
	}
	if got := fab.ImpairmentOf(0, Ether, false); got.ExtraLatency != 1e-6 || got.Efficiency != 0.5 {
		t.Fatalf("ImpairmentOf = %+v", got)
	}
	// Setting the zero value clears the entry.
	if err := fab.SetImpairment(0, Ether, false, Impairment{}); err != nil {
		t.Fatal(err)
	}
	if got := fab.ImpairmentOf(0, Ether, false); !got.IsZero() {
		t.Fatalf("zero set left %+v installed", got)
	}
}

func TestImpairmentFoldsIntoLatency(t *testing.T) {
	topo := topology.IBEnv(2)
	_, fab := newFab(t, topo)
	base := fab.Latency(0, 8, RDMA)
	const extra, eff = 5e-6, 0.8
	if err := fab.SetImpairment(0, RDMA, false, Impairment{ExtraLatency: extra, Efficiency: eff}); err != nil {
		t.Fatal(err)
	}
	want := (base + extra) / eff
	if got := fab.Latency(0, 8, RDMA); math.Abs(got-want) > 1e-15 {
		t.Fatalf("impaired latency %v, want %v", got, want)
	}
	// The reverse direction only crosses node 0's inbound side, which is
	// clean — latency there is untouched.
	if got := fab.Latency(8, 0, RDMA); got != base {
		t.Fatalf("reverse latency %v, want pristine %v", got, base)
	}
	// Inbound impairment on the destination stacks with the source's
	// outbound one.
	if err := fab.SetImpairment(1, RDMA, true, Impairment{ExtraLatency: extra}); err != nil {
		t.Fatal(err)
	}
	want = (base + 2*extra) / eff
	if got := fab.Latency(0, 8, RDMA); math.Abs(got-want) > 1e-15 {
		t.Fatalf("stacked latency %v, want %v", got, want)
	}
	// A zero impairment clears node 0's outbound side and node 1's
	// inbound one.
	for node, inbound := range []bool{false, true} {
		if err := fab.SetImpairment(node, RDMA, inbound, Impairment{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fab.Latency(0, 8, RDMA); got != base {
		t.Fatalf("cleared latency %v, want %v", got, base)
	}
}

func TestLossDeratesGoodput(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	const eff = 0.5
	if err := fab.SetImpairment(0, RDMA, false, Impairment{Efficiency: eff}); err != nil {
		t.Fatal(err)
	}
	bytes := 1e9
	var done sim.Time = -1
	fab.StartFlow(0, 8, bytes, RDMA, func() { done = eng.Now() })
	eng.Run()
	// Half the packets are retransmissions: the wire carries bytes/eff.
	bw := fab.NodeBandwidth(0, RDMA)
	want := fab.Latency(0, 8, RDMA) + bytes/eff/bw
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("lossy flow took %v, want %v", done, want)
	}
	// TransferTime's analytic answer agrees with the flow.
	if an := fab.TransferTime(0, 8, bytes, RDMA); math.Abs(an-want) > 1e-9 {
		t.Fatalf("TransferTime %v, want %v", an, want)
	}
}

func TestJitterDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []sim.Time {
		topo := topology.IBEnv(2)
		eng := sim.NewEngine()
		fab := New(eng, topo, DefaultParams())
		fab.SeedJitter(seed)
		if err := fab.SetImpairment(0, RDMA, false, Impairment{JitterSeconds: 2e-6, JitterDist: DistNormal}); err != nil {
			t.Fatal(err)
		}
		var ends []sim.Time
		for i := 0; i < 8; i++ {
			fab.StartFlow(0, 8, 1e8, RDMA, func() { ends = append(ends, eng.Now()) })
		}
		eng.Run()
		return ends
	}
	a, b, c := run(7), run(7), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at flow %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestJitterDistributionsDraw(t *testing.T) {
	for _, d := range []Dist{DistUniform, DistNormal, DistPareto, ""} {
		topo := topology.IBEnv(2)
		eng := sim.NewEngine()
		fab := New(eng, topo, DefaultParams())
		fab.SeedJitter(3)
		if err := fab.SetImpairment(0, RDMA, false, Impairment{JitterSeconds: 1e-5, JitterDist: d}); err != nil {
			t.Fatal(err)
		}
		base := fab.TransferTime(0, 8, 1e6, RDMA)
		distinct := false
		for i := 0; i < 16; i++ {
			var done sim.Time
			fab.StartFlow(0, 8, 1e6, RDMA, func() { done = eng.Now() })
			eng.Run()
			if d == DistPareto && done < base-1e-12 {
				t.Fatalf("pareto jitter drew early: %v < %v", done, base)
			}
			if math.Abs(done-base) > 1e-12 {
				distinct = true
			}
		}
		if !distinct {
			t.Fatalf("dist %q never perturbed the flow", string(d))
		}
	}
}

// The impairment-free fabric must never touch its PRNG: runs on a fabric
// that was seeded but never impaired are bit-identical to a virgin one.
func TestNoImpairmentNoDraws(t *testing.T) {
	run := func(seed bool) []sim.Time {
		topo := topology.HybridEnv(4)
		eng := sim.NewEngine()
		fab := New(eng, topo, DefaultParams())
		if seed {
			fab.SeedJitter(99)
		}
		var ends []sim.Time
		for i := 0; i < 6; i++ {
			fab.StartFlow(i, 16+i, 1e8, Ether, func() { ends = append(ends, eng.Now()) })
		}
		eng.Run()
		return ends
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded-but-unimpaired fabric diverged at flow %d", i)
		}
	}
}

func TestAbortFlowFreesBandwidth(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	bytes := 1e9
	var victimDone, survivorDone sim.Time = -1, -1
	victim := fab.StartFlow(0, 8, bytes, RDMA, func() { victimDone = eng.Now() })
	fab.StartFlow(1, 9, bytes, RDMA, func() { survivorDone = eng.Now() })
	// Abort the victim halfway through the shared bottleneck.
	lone := fab.TransferTime(0, 8, bytes, RDMA)
	eng.After(lone, func() { fab.AbortFlow(victim) })
	eng.Run()
	if victimDone != -1 {
		t.Fatal("aborted flow fired its callback")
	}
	if survivorDone < 0 {
		t.Fatal("survivor never finished")
	}
	// Survivor shares for `lone` seconds, then runs alone: strictly faster
	// than always-shared, slower than never-shared.
	bw := fab.PairBandwidth(1, 9, RDMA)
	neverShared := fab.Latency(1, 9, RDMA) + bytes/bw
	alwaysShared := fab.Latency(1, 9, RDMA) + bytes/(bw/2)
	if survivorDone <= neverShared || survivorDone >= alwaysShared {
		t.Fatalf("survivor %v outside (%v, %v)", survivorDone, neverShared, alwaysShared)
	}
	// Double abort is a no-op.
	fab.AbortFlow(victim)
}

func TestAbortBeforeAdmissionCancelsFlow(t *testing.T) {
	topo := topology.IBEnv(2)
	eng, fab := newFab(t, topo)
	var done bool
	fl := fab.StartFlow(0, 8, 1e9, RDMA, func() { done = true })
	// Abort during the latency term, before any bandwidth is claimed.
	fab.AbortFlow(fl)
	eng.Run()
	if done {
		t.Fatal("aborted flow completed")
	}
	if n := fab.InFlight(); n != 0 {
		t.Fatalf("%d flows still in flight", n)
	}
}

func TestTrunkDegradeRestore(t *testing.T) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	p := DefaultParams()
	p.InterClusterGbps = 10
	fab := New(eng, topo, p)
	orig, ok := fab.TrunkBandwidth(0, 1)
	if !ok {
		t.Fatal("no trunk built")
	}
	// A scenario partition scales the trunk from the capacity it read.
	if err := fab.RestoreTrunk(0, 1, orig*0.25); err != nil {
		t.Fatal(err)
	}
	if got, _ := fab.TrunkBandwidth(1, 0); math.Abs(got-orig*0.25) > 1e-9 {
		t.Fatalf("degraded trunk bw %v, want %v (order-independent lookup)", got, orig*0.25)
	}
	if err := fab.RestoreTrunk(0, 1, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := fab.RestoreTrunk(0, 1, orig); err != nil {
		t.Fatal(err)
	}
	if got, _ := fab.TrunkBandwidth(0, 1); got != orig {
		t.Fatalf("restored trunk bw %v, want %v", got, orig)
	}
	// Trunkless pair: there is no capacity to read or set.
	fab2 := New(sim.NewEngine(), topo, DefaultParams())
	if _, ok := fab2.TrunkBandwidth(0, 1); ok {
		t.Fatal("trunkless pair reported a trunk")
	}
	if err := fab2.RestoreTrunk(0, 1, 1); err == nil {
		t.Fatal("RestoreTrunk on trunkless pair accepted")
	}
}
