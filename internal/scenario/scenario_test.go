package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

func TestValidateRejectsBadTimelines(t *testing.T) {
	bad := []struct {
		name string
		ev   Event
	}{
		{"unknown kind", Event{Kind: "reboot", At: 0}},
		{"negative time", Event{Kind: FailNode, At: -1}},
		{"NaN time", Event{Kind: FailNode, At: math.NaN()}},
		{"infinite time", Event{Kind: FailNode, At: math.Inf(1)}},
		{"zero factor", Event{Kind: DegradeNIC, At: 0, Factor: 0}},
		{"factor above one", Event{Kind: DegradeNIC, At: 0, Factor: 1.5}},
		{"negative node", Event{Kind: DegradeNIC, At: 0, Node: -2, Factor: 0.5}},
		{"bad class", Event{Kind: DegradeNIC, At: 0, Factor: 0.5, Class: "carrier-pigeon"}},
		{"self traffic", Event{Kind: BackgroundTraffic, At: 0, Src: 1, Dst: 1, Gbps: 1}},
		{"negative rate", Event{Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Gbps: -1}},
		{"until before start", Event{Kind: BackgroundTraffic, At: 2, Src: 0, Dst: 1, Gbps: 1, Until: 1}},
		{"join zero nodes", Event{Kind: JoinNodes, At: 0, Cluster: 0, Count: 0}},
		{"join negative cluster", Event{Kind: JoinNodes, At: 0, Cluster: -1, Count: 1}},
	}
	for _, tc := range bad {
		sc := &Scenario{Events: []Event{tc.ev}}
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

func TestValidateForRejectsOutOfRangeTargets(t *testing.T) {
	topo := topology.HybridEnv(4)
	for _, ev := range []Event{
		{Kind: FailNode, At: 0, Node: 4},
		{Kind: DegradeNIC, At: 0, Node: 99, Factor: 0.5},
		{Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 4, Gbps: 1},
		{Kind: JoinNodes, At: 0, Cluster: 2, Count: 1},
	} {
		sc := &Scenario{Events: []Event{ev}}
		if err := sc.ValidateFor(topo); err == nil {
			t.Errorf("%+v: validated against a 4-node topology", ev)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sc := &Scenario{
		Name: "rough-day",
		Events: []Event{
			{Kind: DegradeNIC, At: 0.5, Node: 1, Class: ClassRDMA, Factor: 0.25},
			{Kind: BackgroundTraffic, At: 1, Src: 0, Dst: 2, Class: ClassEther, Gbps: 20, Until: 5},
			{Kind: FailNode, At: 2, Node: 3},
			{Kind: RestoreNode, At: 6, Node: 1},
			{Kind: JoinNodes, At: 7, Cluster: 1, Count: 2},
		},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != sc.Name || len(back.Events) != len(sc.Events) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range sc.Events {
		if back.Events[i] != sc.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, back.Events[i], sc.Events[i])
		}
	}
}

func TestLoadRejectsUnknownFieldsAndInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"events":[{"kind":"fail_node","at":0,"bogus":1}]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"events":[{"kind":"degrade_nic","at":0,"factor":7}]}`)); err == nil {
		t.Error("invalid factor accepted")
	}
	if _, err := Load(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{} {"events":[{"kind":"fail_node","at":0}]}`)); err == nil {
		t.Error("trailing data accepted: real events silently dropped")
	}
	for _, stray := range []string{`}`, `]`} {
		if _, err := Load(strings.NewReader(`{"events":[]}` + stray)); err == nil {
			t.Errorf("trailing %q accepted", stray)
		}
	}
}

func TestStateFolding(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Kind: DegradeNIC, At: 1, Node: 0, Factor: 0.5},               // rdma ×0.5
		{Kind: DegradeNIC, At: 2, Node: 0, Factor: 0.5},               // compounds to ×0.25
		{Kind: DegradeNIC, At: 2, Node: 1, Class: "Eth", Factor: 0.1}, // eth ×0.1
		{Kind: FailNode, At: 3, Node: 2},
		{Kind: RestoreNode, At: 4, Node: 0},
		{Kind: JoinNodes, At: 5, Cluster: 1, Count: 2},
	}}
	st := sc.StateAt(2.5)
	if got := st.Nodes[0].RDMAFactor; got != 0.25 {
		t.Errorf("node 0 rdma factor %v, want 0.25 (compounded)", got)
	}
	if got := st.Nodes[1].EthFactor; got != 0.1 {
		t.Errorf("node 1 eth factor %v, want 0.1", got)
	}
	if len(st.FailedNodes()) != 0 {
		t.Errorf("failure folded early: %v", st.FailedNodes())
	}

	st = sc.StateAt(3.5)
	if got := st.FailedNodes(); len(got) != 1 || got[0] != 2 {
		t.Errorf("failed nodes %v, want [2]", got)
	}

	st = sc.StateAt(math.Inf(1))
	if _, touched := st.Nodes[0]; touched {
		t.Error("restore did not reset node 0")
	}
	if st.Joined[1] != 2 {
		t.Errorf("joined %v, want 2 in cluster 1", st.Joined)
	}
}

func TestEffectiveTopologyExcludesFailedAndScalesDegraded(t *testing.T) {
	topo := topology.HybridEnv(4) // nodes 0,1 IB; 2,3 RoCE
	sc := &Scenario{Events: []Event{
		{Kind: FailNode, At: 0, Node: 3},
		{Kind: DegradeNIC, At: 0, Node: 0, Factor: 0.5},
		{Kind: JoinNodes, At: 1, Cluster: 1, Count: 2},
	}}
	eff, excluded, err := sc.EffectiveTopology(topo, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(excluded) != 1 || excluded[0] != 3 {
		t.Fatalf("excluded %v, want [3]", excluded)
	}
	// 4 - 1 failed + 2 joined = 5 nodes.
	if eff.NumNodes() != 5 {
		t.Fatalf("%d nodes, want 5", eff.NumNodes())
	}
	if got := eff.Node(0).RDMAGbps(); got != topo.Node(0).RDMAGbps()*0.5 {
		t.Errorf("degraded node carries %v Gbps, want half of %v", got, topo.Node(0).RDMAGbps())
	}
	if got := eff.Node(1).RDMAGbps(); got != topo.Node(1).RDMAGbps() {
		t.Errorf("untouched node changed: %v vs %v", got, topo.Node(1).RDMAGbps())
	}
	// Joined RoCE nodes arrive at the cluster's baseline capacity.
	if got, want := eff.Node(4).RDMAGbps(), topo.Node(2).RDMAGbps(); got != want {
		t.Errorf("joined node at %v Gbps, want baseline %v", got, want)
	}
	if err := eff.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degraded capacity must be visible to a fabric built on the
	// effective topology.
	effFab := netsim.New(sim.NewEngine(), eff, netsim.DefaultParams())
	origFab := netsim.New(sim.NewEngine(), topo, netsim.DefaultParams())
	if got, want := effFab.NodeBandwidth(0, netsim.RDMA), origFab.NodeBandwidth(0, netsim.RDMA)/2; got != want {
		t.Errorf("effective fabric bandwidth %v, want %v", got, want)
	}
	// Fingerprints must differ (the engine cache keys on them).
	if eff.Fingerprint() == topo.Fingerprint() {
		t.Error("effective topology shares the pristine fingerprint")
	}
}

func TestEffectiveTopologyDropsEmptyClusterAndErrorsWhenNothingSurvives(t *testing.T) {
	topo := topology.HybridEnv(4)
	sc := &Scenario{Events: []Event{
		{Kind: FailNode, At: 0, Node: 2},
		{Kind: FailNode, At: 0, Node: 3},
	}}
	eff, _, err := sc.EffectiveTopology(topo, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if eff.NumClusters() != 1 || eff.NumNodes() != 2 {
		t.Fatalf("want the IB cluster alone, got %s", eff)
	}

	all := &Scenario{Events: []Event{
		{Kind: FailNode, At: 0, Node: 0}, {Kind: FailNode, At: 0, Node: 1},
		{Kind: FailNode, At: 0, Node: 2}, {Kind: FailNode, At: 0, Node: 3},
	}}
	if _, _, err := all.EffectiveTopology(topo, math.Inf(1)); err == nil {
		t.Fatal("total loss produced a topology")
	}
}

// Bind/restore round trip: capacities degraded (twice, compounding) and
// restored mid-run must return exactly to the original, and the fabric
// must apply events at their scripted instants.
func TestRuntimeAppliesAndRestoresCapacities(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	orig := fab.NodeBandwidth(0, netsim.RDMA)

	sc := &Scenario{Events: []Event{
		{Kind: DegradeNIC, At: 1, Node: 0, Factor: 0.5},
		{Kind: DegradeNIC, At: 2, Node: 0, Factor: 0.5},
		{Kind: RestoreNode, At: 3, Node: 0},
	}}
	rt, err := sc.Bind(eng, fab)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1.5)
	if got := fab.NodeBandwidth(0, netsim.RDMA); got != orig*0.5 {
		t.Fatalf("after first degrade: %v, want %v", got, orig*0.5)
	}
	eng.RunUntil(2.5)
	if got := fab.NodeBandwidth(0, netsim.RDMA); got != orig*0.25 {
		t.Fatalf("after second degrade: %v, want %v (compounded)", got, orig*0.25)
	}
	eng.RunUntil(3.5)
	if got := fab.NodeBandwidth(0, netsim.RDMA); got != orig {
		t.Fatalf("after restore: %v, want original %v", got, orig)
	}
	if rt.Applied() != 3 {
		t.Fatalf("applied %d events, want 3", rt.Applied())
	}
}

// Stop must cancel pending events and halt open-ended background
// traffic so the engine can drain.
func TestRuntimeStopHaltsOpenEndedTraffic(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	sc := &Scenario{Events: []Event{
		{Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Gbps: 50}, // Until 0: open-ended
		{Kind: DegradeNIC, At: 1e6, Node: 0, Factor: 0.5},          // far future
	}}
	rt, err := sc.Bind(eng, fab)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1.0)
	if fab.InFlight() == 0 {
		t.Fatal("background stream never started")
	}
	rt.Stop()
	end := eng.Run() // must terminate: generators halted, future events cancelled
	if fab.InFlight() != 0 {
		t.Fatalf("%d flows still alive after stop", fab.InFlight())
	}
	if end >= 1e6 {
		t.Fatalf("engine ran to the cancelled event at t=%v", end)
	}
	rt.Stop() // idempotent
}

// Bounded background traffic must end on its own at Until.
func TestBackgroundTrafficRespectsUntil(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	sc := &Scenario{Events: []Event{
		{Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Gbps: 80, Until: 2},
	}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	end := eng.Run()
	if fab.InFlight() != 0 {
		t.Fatalf("%d flows alive after drain", fab.InFlight())
	}
	// The stream stops at Until; the last chunk drains shortly after.
	if end < 2 || end > 2.5 {
		t.Fatalf("engine drained at t=%v, want shortly after until=2", end)
	}
}

// A rate-capped stream must offer only its scripted load: a probe flow
// sharing the link keeps (link − rate) bandwidth, not a greedy fair
// half. This is the observable contract of StartFlows' rate cap.
func TestBackgroundTrafficOffersScriptedRate(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	const gbps, until = 10.0, 4.0
	rate := gbps / 8 * 1e9
	link := fab.NodeBandwidth(0, netsim.RDMA)
	sc := &Scenario{Events: []Event{
		{Kind: BackgroundTraffic, At: 0, Src: 0, Dst: 1, Class: ClassRDMA, Gbps: gbps, Until: until},
	}}
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	probeBytes := 10e9
	var probeDone float64
	eng.At(0.1, func() {
		fab.StartFlow(fab.Route(0, 8, netsim.RDMA), probeBytes, func() { probeDone = eng.Now() })
	})
	end := eng.Run()
	if got := end; got < until || got > until+0.1 {
		t.Fatalf("stream drained at %v, want just past %v", got, until)
	}
	if probeDone == 0 {
		t.Fatal("probe never completed")
	}
	// With the stream capped at `rate`, the probe keeps link−rate and
	// finishes in probeBytes/(link−rate); a greedy (uncapped) stream
	// would halve the probe's bandwidth. Assert the capped regime with
	// slack for chunk latency gaps.
	capped := probeBytes / (link - rate)
	greedy := probeBytes / (link / 2)
	if elapsed := probeDone - 0.1; elapsed > (capped+greedy)/2 {
		t.Fatalf("probe took %.4fs: stream is not rate-capped (capped regime %.4fs, greedy %.4fs)",
			elapsed, capped, greedy)
	}
}

func TestEmptyScenarioBindsInert(t *testing.T) {
	topo := topology.IBEnv(2)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	var nilSc *Scenario
	rt, err := nilSc.Bind(eng, fab)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("nil scenario scheduled %d events", eng.Pending())
	}
	rt.Stop()
	rt2, err := (&Scenario{}).Bind(eng, fab)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 || rt2.Applied() != 0 {
		t.Fatal("empty scenario is not inert")
	}
}
