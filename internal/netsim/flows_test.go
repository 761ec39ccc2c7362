package netsim

import (
	"math"
	"testing"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

// A finished flow's record is reused by the next flow, and the finished
// flow's handle goes stale: aborting it, twice, and aborting the zero
// handle leave the new flow alone.
func TestStaleFlowHandleIgnored(t *testing.T) {
	eng, fab := newFab(t, topology.IBEnv(2))
	old := fab.StartFlow(fab.Route(0, 8, RDMA), 1e8, nil)
	eng.Run()
	start := eng.Now()
	var done sim.Time = -1
	id := fab.StartFlow(fab.Route(0, 8, RDMA), 1e9, func() { done = eng.Now() })
	if id.slot != old.slot || id == old {
		t.Fatalf("new flow %+v did not reuse finished flow %+v's record under a new generation", id, old)
	}
	fab.AbortFlow(old)
	fab.AbortFlow(old)
	fab.AbortFlow(FlowID{})
	eng.Run()
	if want := fab.TransferTime(0, 8, 1e9, RDMA); math.Abs(done-start-want) > 1e-9 {
		t.Fatalf("flow took %v after a stale abort, want %v", done-start, want)
	}
	if n := fab.InFlight(); n != 0 {
		t.Fatalf("%d flows in flight after the run", n)
	}
}

// A flow aborted during its latency term holds its record until its
// admission event, then gives it back. Flows started around it time
// exactly as on a fabric that never saw it, and InFlight never counts it.
func TestAbortInLatencyTermReleasesRecord(t *testing.T) {
	type run struct {
		ends     []sim.Time
		inFlight []int
		records  int
	}
	simulate := func(victim bool) run {
		var r run
		eng, fab := newFab(t, topology.IBEnv(2))
		record := func() { r.ends = append(r.ends, eng.Now()) }
		if victim {
			v := fab.StartFlow(fab.Route(0, 8, RDMA), 1e9, func() { t.Error("aborted flow completed") })
			fab.AbortFlow(v)
		}
		for i := 0; i < 2; i++ {
			fab.StartFlow(fab.Route(i, 8+i, RDMA), 1e8*float64(i+1), record)
		}
		// Past the victim's admission instant, while the first flows
		// still share node 0's NICs.
		eng.At(1e-3, func() {
			r.inFlight = append(r.inFlight, fab.InFlight())
			for i := 0; i < 3; i++ {
				fab.StartFlow(fab.Route(2+i, 10+i, RDMA), 5e7, record)
			}
		})
		eng.Run()
		r.inFlight = append(r.inFlight, fab.InFlight())
		r.records = len(fab.flows)
		return r
	}
	got, want := simulate(true), simulate(false)
	if len(got.ends) != 5 || len(want.ends) != 5 {
		t.Fatalf("completions: %d with the victim, %d without, want 5", len(got.ends), len(want.ends))
	}
	for i := range want.ends {
		if got.ends[i] != want.ends[i] {
			t.Fatalf("completion %d at %v with the aborted victim, %v without", i, got.ends[i], want.ends[i])
		}
	}
	if got.inFlight[0] != 2 || got.inFlight[1] != 0 || want.inFlight[0] != 2 {
		t.Fatalf("InFlight %v with the victim, %v without, want [2 0]", got.inFlight, want.inFlight)
	}
	if got.records != want.records {
		t.Fatalf("%d flow records with the victim, %d without: its record was never reused", got.records, want.records)
	}
}

// On a warmed fabric, a flow's whole life — start, admission, completion
// — allocates nothing; so do a zero-byte flow, an abort during the
// latency term, and an abort on the wire.
func TestFabricSteadyStateAllocs(t *testing.T) {
	eng, fab := newFab(t, topology.IBEnv(2))
	done := func() {}
	var onWire FlowID
	abort := func() { fab.AbortFlow(onWire) }
	cycle := func() {
		fab.StartFlow(fab.Route(0, 8, RDMA), 1e8, done)
		fab.StartFlow(fab.Route(1, 9, RDMA), 1e8, done)
		fab.StartFlow(fab.Route(2, 3, Intra), 0, done)
		fab.AbortFlow(fab.StartFlow(fab.Route(4, 12, RDMA), 1e8, done))
		onWire = fab.StartFlow(fab.Route(5, 13, RDMA), 1e9, done)
		eng.PostAfter(1e-3, abort)
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warmed fabric allocates %v per cycle, want 0", n)
	}
	if n := fab.InFlight(); n != 0 {
		t.Fatalf("%d flows in flight after the cycles", n)
	}
}
