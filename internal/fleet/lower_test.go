package fleet

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"holmes/internal/engine"
	"holmes/internal/scenario"
)

// The lowering pass is the fleet's whole story for the extended scenario
// vocabulary: every new kind must behave exactly like its hand-written
// primitive encoding, and the kinds the placement carve cannot express
// must be rejected up front rather than silently ignored.

func TestLowerEventsFoldsNewKinds(t *testing.T) {
	topo := hybridTopo(t) // clusters {0,1}, nodes 0-1 and 2-3
	sc := &scenario.Scenario{Name: "lower", Events: []scenario.Event{
		{Kind: scenario.Straggler, At: 5, Node: 1, Factor: 0.5},
		{Kind: scenario.FailCluster, At: 10, Cluster: 1},
		{Kind: scenario.FlapLink, At: 15, Until: 20, Node: 0, DownMs: 100, UpMs: 100},
		{Kind: scenario.Loss, At: 25, Until: 30, Node: 2, Pct: 20},
		{Kind: scenario.Delay, At: 35, Node: 3, DelayMs: 5},
		{Kind: scenario.Jitter, At: 36, Node: 3, JitterMs: 2, Dist: "uniform"},
	}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	got := lowerEvents(topo, sc)
	want := []scenario.Event{
		{Kind: scenario.DegradeNIC, At: 5, Node: 1, Class: scenario.ClassRDMA, Factor: 0.5},
		{Kind: scenario.DegradeNIC, At: 5, Node: 1, Class: scenario.ClassEther, Factor: 0.5},
		{Kind: scenario.FailNode, At: 10, Node: 2},
		{Kind: scenario.FailNode, At: 10, Node: 3},
		{Kind: scenario.FailNode, At: 15, Node: 0},
		{Kind: scenario.RestoreNode, At: 20, Node: 0},
		{Kind: scenario.DegradeNIC, At: 25, Node: 2, Class: scenario.ClassEther, Factor: 0.8},
		{Kind: scenario.RestoreNode, At: 30, Node: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("lowered %d events, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lowered[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestNewKindsMatchHandLoweredTrace replays the same workload twice —
// once under the extended vocabulary, once under its hand-written
// primitive encoding — and requires bit-identical schedules. This pins
// the semantics of the lowering at the schedule level, not just the
// event level.
func TestNewKindsMatchHandLoweredTrace(t *testing.T) {
	jobs := []Job{
		{ID: "a", Submit: 0, GPUs: 16, Iterations: 2, Model: pg1()},
		{ID: "b", Submit: 1, GPUs: 8, Iterations: 2, Model: pg1()},
		{ID: "c", Submit: 2, GPUs: 8, Iterations: 1, Model: pg1()},
	}
	rich := &Trace{
		Name:  "lowered",
		Fleet: Spec{Env: "Hybrid", Nodes: 4},
		Scenario: &scenario.Scenario{Name: "rich", Events: []scenario.Event{
			{Kind: scenario.Straggler, At: 3, Node: 0, Factor: 0.5},
			{Kind: scenario.FailCluster, At: 40, Cluster: 1},
			{Kind: scenario.FlapLink, At: 80, Until: 120, Node: 1, DownMs: 50, UpMs: 50},
			{Kind: scenario.Loss, At: 130, Until: 200, Node: 1, Pct: 30},
		}},
		Jobs: jobs,
	}
	plain := &Trace{
		Name:  "lowered",
		Fleet: rich.Fleet,
		Scenario: &scenario.Scenario{Name: "plain", Events: []scenario.Event{
			{Kind: scenario.DegradeNIC, At: 3, Node: 0, Class: scenario.ClassRDMA, Factor: 0.5},
			{Kind: scenario.DegradeNIC, At: 3, Node: 0, Class: scenario.ClassEther, Factor: 0.5},
			{Kind: scenario.FailNode, At: 40, Node: 2},
			{Kind: scenario.FailNode, At: 40, Node: 3},
			{Kind: scenario.FailNode, At: 80, Node: 1},
			{Kind: scenario.RestoreNode, At: 120, Node: 1},
			{Kind: scenario.DegradeNIC, At: 130, Node: 1, Class: scenario.ClassEther, Factor: 0.7},
			{Kind: scenario.RestoreNode, At: 200, Node: 1},
		}},
		Jobs: jobs,
	}
	eng := engine.New(engine.Config{})
	got, err := Replay(eng, rich)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Replay(eng, plain)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := marshalSched(t, got), marshalSched(t, want); g != w {
		t.Fatalf("extended-vocabulary trace diverged from its primitive encoding:\nrich:  %s\nplain: %s", g, w)
	}
	// The scenario must have bitten: node 0 straggles from t=3, so job a
	// (16 GPUs = both IB nodes in a 4-node hybrid, or a cross split)
	// cannot finish at the pristine-fabric makespan.
	pristine, err := Replay(eng, &Trace{Name: "pristine", Fleet: rich.Fleet, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan <= pristine.Makespan {
		t.Fatalf("faulted makespan %.6g not worse than pristine %.6g — scenario never bit", got.Makespan, pristine.Makespan)
	}
}

// TestFleetRejectsSimulationOnlyKinds: partitions live in the fabric's
// trunks and background traffic in the flow layer; the placement carve
// models neither, so the fleet must refuse them loudly.
func TestFleetRejectsSimulationOnlyKinds(t *testing.T) {
	topo := hybridTopo(t)
	eng := engine.New(engine.Config{})
	m, err := NewManager(eng, topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []scenario.Event{
		{Kind: scenario.Partition, At: 5, Cluster: 0, Peer: 1},
		{Kind: scenario.BackgroundTraffic, At: 5, Src: 0, Dst: 1, Gbps: 5},
	} {
		err := m.ApplyEvent(ev)
		if err == nil {
			t.Fatalf("ApplyEvent(%s) succeeded, want rejection", ev.Kind)
		}
		if !strings.Contains(err.Error(), "not supported by the fleet scheduler") {
			t.Fatalf("ApplyEvent(%s) error %q lacks the kind-rejection message", ev.Kind, err)
		}
	}
	// A rejected event must not leak into the timeline.
	if _, err := m.Schedule(); err != nil {
		t.Fatalf("schedule after rejected events: %v", err)
	}
}

// appendSeq draws seeded events of every kind the fleet accepts, on a
// half-second grid so that instants, Untils and appends out of At order
// tie often.
type appendSeq struct {
	r     *rand.Rand
	clock float64
}

func (a *appendSeq) next() scenario.Event {
	at := a.clock
	switch a.r.IntN(3) {
	case 0: // after the latest so far
		a.clock += float64(a.r.IntN(3)) / 2
		at = a.clock
	case 1: // earlier than the latest
		at = float64(a.r.IntN(int(2*a.clock)+1)) / 2
	}
	until := at + float64(1+a.r.IntN(4))/2
	node := a.r.IntN(4)
	switch a.r.IntN(12) {
	case 0:
		return scenario.Event{Kind: scenario.FailNode, At: at, Node: node}
	case 1:
		return scenario.Event{Kind: scenario.RestoreNode, At: at, Node: node}
	case 2:
		return scenario.Event{Kind: scenario.DegradeNIC, At: at, Node: node, Class: scenario.ClassEther, Factor: 0.5}
	case 3:
		return scenario.Event{Kind: scenario.Straggler, At: at, Node: node, Factor: 0.75}
	case 4:
		return scenario.Event{Kind: scenario.FailCluster, At: at, Cluster: a.r.IntN(2)}
	case 5:
		return scenario.Event{Kind: scenario.FlapLink, At: at, Until: until, Node: node, DownMs: 100, UpMs: 100}
	case 6:
		return scenario.Event{Kind: scenario.Loss, At: at, Node: node, Pct: 10}
	case 7:
		return scenario.Event{Kind: scenario.Loss, At: at, Until: until, Node: node, Pct: 20, Class: scenario.ClassRDMA}
	case 8:
		return scenario.Event{Kind: scenario.Corrupt, At: at, Node: node, Pct: 5}
	case 9:
		return scenario.Event{Kind: scenario.Corrupt, At: at, Until: until, Node: node, Pct: 30}
	case 10:
		return scenario.Event{Kind: scenario.Delay, At: at, Node: node, DelayMs: 3}
	}
	return scenario.Event{Kind: scenario.Jitter, At: at, Node: node, JitterMs: 2, Dist: "uniform"}
}

// TestApplyEventMatchesLoweringTheTimeline appends seeded events of
// every kind the fleet accepts, one at a time, in and out of At order:
// after each append the manager's kept lowered slice must equal
// lowerEvents of its whole timeline. It opens with the tie a merge that
// only compares instants gets wrong: with fail_node at 5 in the
// timeline, flap_link from 1 until 5 lowers to fail@1, then the flap's
// restore@5, then the fail_node@5, since the flap is ordered first. An
// invalid event must fail with the error the whole appended timeline
// fails validation with, byte for byte, and leave the timeline as it
// was.
func TestApplyEventMatchesLoweringTheTimeline(t *testing.T) {
	topo := hybridTopo(t)
	for _, seed := range []uint64{1, 2, 3} {
		m, err := NewManager(engine.New(engine.Config{}), topo)
		if err != nil {
			t.Fatal(err)
		}
		check := func(desc string) {
			t.Helper()
			m.mu.Lock()
			defer m.mu.Unlock()
			if want := lowerEvents(topo, m.scn); !slices.Equal(m.evs, want) {
				t.Fatalf("seed %d, after %s: kept lowered events\n%+v\nwant\n%+v", seed, desc, m.evs, want)
			}
		}
		apply := func(ev scenario.Event) {
			t.Helper()
			if err := m.ApplyEvent(ev); err != nil {
				t.Fatalf("seed %d: %s at %g: %v", seed, ev.Kind, ev.At, err)
			}
			check(fmt.Sprintf("%s at %g", ev.Kind, ev.At))
		}
		apply(scenario.Event{Kind: scenario.FailNode, At: 5, Node: 0})
		apply(scenario.Event{Kind: scenario.FlapLink, At: 1, Until: 5, Node: 1, DownMs: 100, UpMs: 100})
		tie := []scenario.Event{
			{Kind: scenario.FailNode, At: 1, Node: 1},
			{Kind: scenario.RestoreNode, At: 5, Node: 1},
			{Kind: scenario.FailNode, At: 5, Node: 0},
		}
		if !slices.Equal(m.evs, tie) {
			t.Fatalf("the tie lowered to %+v, want %+v", m.evs, tie)
		}

		gen := &appendSeq{r: rand.New(rand.NewPCG(seed, 22)), clock: 5}
		for range 150 {
			apply(gen.next())
		}

		for _, ev := range []scenario.Event{
			{Kind: scenario.FailNode, At: -1, Node: 0},
			{Kind: scenario.FailNode, At: 3, Node: 9},
			{Kind: scenario.FailCluster, At: 3, Cluster: 2},
			{Kind: scenario.DegradeNIC, At: 3, Node: 1, Factor: 0},
			{Kind: scenario.FlapLink, At: 3, Node: 1, DownMs: 100, UpMs: 100},
			{Kind: scenario.Loss, At: 3, Until: 2, Node: 1, Pct: 10},
			{Kind: scenario.Partition, At: 3, Cluster: 0, Peer: 1},
			{Kind: scenario.BackgroundTraffic, At: 3, Src: 0, Dst: 1, Gbps: 5},
			{Kind: "meteor", At: 3},
		} {
			m.mu.Lock()
			before := m.scn.Clone()
			whole := before.Clone()
			whole.Events = append(whole.Events, ev)
			want := validateScenario(topo, whole)
			m.mu.Unlock()
			got := m.ApplyEvent(ev)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("ApplyEvent(%+v) = %v, want %v", ev, got, want)
			}
			if idx := fmt.Sprintf("event %d:", len(before.Events)); !strings.Contains(got.Error(), idx) {
				t.Fatalf("ApplyEvent(%+v) = %q, lacks %q", ev, got, idx)
			}
			if sc := m.Scenario(); !reflect.DeepEqual(sc, before) {
				t.Fatalf("a rejected %s changed the timeline", ev.Kind)
			}
			check("a rejected " + string(ev.Kind))
		}
	}
}

// TestApplyEventCostIgnoresTimelineLength: appending an event to a
// timeline of 200 events allocates as often as appending one to a
// timeline of 10, and as many bytes up to the slices' amortized growth:
// only the appended event is validated and lowered. Copying the 200
// events once would add far more than the slack allowed here.
func TestApplyEventCostIgnoresTimelineLength(t *testing.T) {
	topo := hybridTopo(t)
	const appends = 64
	measure := func(n int) (allocs, bytes uint64) {
		m, err := NewManager(engine.New(engine.Config{}), topo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if err := m.ApplyEvent(scenario.Event{Kind: scenario.DegradeNIC, At: float64(i), Node: i % 4, Factor: 0.9}); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range appends {
			if err := m.ApplyEvent(scenario.Event{Kind: scenario.FailNode, At: float64(n + i), Node: i % 4}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / appends, (after.TotalAlloc - before.TotalAlloc) / appends
	}
	allocs10, bytes10 := measure(10)
	allocs200, bytes200 := measure(200)
	if allocs200 != allocs10 {
		t.Errorf("an append allocates %d times at 200 events and %d at 10", allocs200, allocs10)
	}
	slack := uint64(32 * unsafe.Sizeof(scenario.Event{}))
	if bytes200 > bytes10+slack {
		t.Errorf("an append allocates %d bytes at 200 events and %d at 10: more than %d bytes of amortized growth apart", bytes200, bytes10, slack)
	}
}
