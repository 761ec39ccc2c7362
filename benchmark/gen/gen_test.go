package gen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"holmes/internal/config"
	"holmes/internal/core"
)

// Daemon request bounds (internal/api): nodes per request, events per
// scenario, body bytes.
const (
	maxNodes  = 512
	maxEvents = 256
	maxBody   = 1 << 20
)

// sample draws n requests from every request stream of one seed, in a
// fixed order.
func sample(seed uint64, n int) []Op {
	var ops []Op
	cs, ss := NewColdSearch(seed), NewScenarioSim(seed)
	for range n {
		op, _ := cs.Next()
		ops = append(ops, op)
		op, _ = ss.Next()
		ops = append(ops, op)
	}
	m := NewServeMix(seed)
	ops = append(ops, m.Hot()...)
	for _, a := range m.Arrivals(0, 2000, 1) {
		ops = append(ops, a.Op)
	}
	for range n {
		ops = append(ops, m.NextCold())
	}
	return ops
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := sample(7, 300), sample(7, 300)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("op %d differs between two draws of seed 7", i)
		}
	}
	c := sample(8, 300)
	same := 0
	for i := range min(len(a), len(c)) {
		if bytes.Equal(a[i].Body, c[i].Body) {
			same++
		}
	}
	if len(a) == len(c) && same == len(a) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
	fa, fb := NewFleet(3, 1), NewFleet(3, 1)
	if fmt.Sprint(fa.Initial) != fmt.Sprint(fb.Initial) {
		t.Fatal("fleet initial jobs differ for one seed")
	}
	for i := range 500 {
		if ma, mb := fa.Next(), fb.Next(); ma != mb {
			t.Fatalf("fleet mutation %d differs for one seed: %+v vs %+v", i, ma, mb)
		}
	}
}

// checkConfig runs one config body through the daemon's decoding and
// bounds, and checks the generator's cell count against the planner's.
func checkConfig(t *testing.T, body []byte, want Want) {
	t.Helper()
	if len(body) > maxBody {
		t.Fatalf("body of %d bytes exceeds the daemon's limit", len(body))
	}
	c, err := config.Load(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("config.Load(%s): %v", body, err)
	}
	topo, spec, _, _, err := c.Components()
	if err != nil {
		t.Fatalf("components of %s: %v", body, err)
	}
	if topo.NumNodes() > maxNodes {
		t.Fatalf("%d nodes exceeds the daemon's limit", topo.NumNodes())
	}
	if c.Scenario != nil {
		if len(c.Scenario.Events) > maxEvents {
			t.Fatalf("%d events exceeds the daemon's limit", len(c.Scenario.Events))
		}
		if err := c.Scenario.Validate(); err != nil {
			t.Fatalf("scenario of %s: %v", body, err)
		}
		if err := c.Scenario.ValidateFor(topo); err != nil {
			t.Fatalf("scenario of %s: %v", body, err)
		}
	}
	pl, err := core.NewPlanner(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	space := pl.SearchSpace()
	switch want.Op {
	case "search":
		if len(space) != len(want.Cells) {
			t.Fatalf("%s: generator counts %d cells, planner %d", body, len(want.Cells), len(space))
		}
		for i, d := range space {
			if g := want.Cells[i]; g.T != d.T || g.P != d.P || g.D != d.D {
				t.Fatalf("%s: cell %d is %+v, planner has %+v", body, i, g, d)
			}
		}
	case "plan", "simulate":
		found := false
		for _, d := range space {
			found = found || (d.T == want.Degrees.T && d.P == want.Degrees.P && d.D == want.Degrees.D)
		}
		if !found || c.TensorSize != want.Degrees.T || c.PipelineSize != want.Degrees.P {
			t.Fatalf("%s: degrees %+v are not in the planner's space", body, want.Degrees)
		}
	default:
		t.Fatalf("unknown op %q", want.Op)
	}
	if want.Samples != spec.GlobalBatch {
		t.Fatalf("%s: generator expects global batch %d, spec has %d", body, want.Samples, spec.GlobalBatch)
	}
}

func TestBodiesPassDaemonDecoding(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		// Cold plans of the cold stream's second pass carry a cluster label.
		m := NewServeMix(seed)
		for range 700 {
			m.NextCold()
		}
		op := m.NextCold()
		if !bytes.Contains(op.Body, []byte(`"name":"pass-1"`)) {
			t.Fatalf("cold plan 701 of seed %d is not from the second pass: %s", seed, op.Body)
		}
		checkConfig(t, op.Body, op.Want)
		for _, op := range sample(seed, 150) {
			if op.Want.Op != "batch" {
				checkConfig(t, op.Body, op.Want)
				continue
			}
			var env struct {
				Items []struct {
					Op     string          `json:"op"`
					Config json.RawMessage `json:"config"`
				} `json:"items"`
			}
			if err := json.Unmarshal(op.Body, &env); err != nil {
				t.Fatal(err)
			}
			if len(env.Items) != len(op.Want.Batch) {
				t.Fatalf("batch of %d items, %d wants", len(env.Items), len(op.Want.Batch))
			}
			for i, it := range env.Items {
				checkConfig(t, it.Config, op.Want.Batch[i])
			}
		}
	}
}

func TestKeysDistinctAcrossWorkloads(t *testing.T) {
	const n = 500
	seen := map[string]string{}
	add := func(stream string, op Op) {
		key := op.Path + " " + string(op.Body)
		if prev, dup := seen[key]; dup {
			t.Fatalf("%s repeats a %s request: %s", stream, prev, op.Body)
		}
		seen[key] = stream
	}
	cs, ss, m := NewColdSearch(1), NewScenarioSim(1), NewServeMix(1)
	for range n {
		op, ok := cs.Next()
		if !ok {
			t.Fatal("cold-search ran dry")
		}
		add("cold-search", op)
		op, _ = ss.Next()
		add("scenario-sim", op)
	}
	for _, op := range m.Hot() {
		add("serve-mix hot", op)
	}
	// Three passes over the 684 plan shapes: the cold stream never runs
	// dry, and a later pass repeats no earlier plan.
	for range 3 * 684 {
		op := m.NextCold()
		add("serve-mix cold", op)
		if op.Want.Degrees.T != 1 || op.Want.Degrees.P != 1 {
			t.Fatalf("cold plan asks for %+v, want the pure data-parallel cell", op.Want.Degrees)
		}
	}
}

func TestColdSearchVisitsEveryStratumEachRound(t *testing.T) {
	c := NewColdSearch(1)
	for round := range 4 {
		seen := map[string]bool{}
		for range c.Round() {
			sh, ok := c.shapes.next()
			if !ok {
				t.Fatalf("round %d ran dry", round)
			}
			k := multisetKey(sh.Clusters)
			if seen[k] {
				t.Fatalf("round %d visits stratum %s twice", round, k)
			}
			seen[k] = true
		}
		if len(seen) != c.Round() {
			t.Fatalf("round %d visited %d of %d strata", round, len(seen), c.Round())
		}
	}
}

// Every seed's scenario-sim round asks the same work: the same strata at
// the same groups and degrees, each stratum once per group.
func TestScenarioSimRoundIsSeedIndependent(t *testing.T) {
	// work counts two rounds' requests by stratum, group and degrees, and
	// by stratum and group alone.
	work := func(seed uint64) (map[string]int, map[string]int) {
		s := NewScenarioSim(seed)
		cells, visits := map[string]int{}, map[string]int{}
		for range 2 * s.Round() {
			op, _ := s.Next()
			var cfg wireConfig
			if err := json.Unmarshal(op.Body, &cfg); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", multisetKey(cfg.Clusters), cfg.Model.Group)
			cells[fmt.Sprintf("%s %+v", key, op.Want.Degrees)]++
			visits[key]++
		}
		return cells, visits
	}
	a, visits := work(1)
	b, _ := work(2)
	if len(a) != len(b) {
		t.Fatalf("seeds 1 and 2 ask %d and %d distinct pieces of work", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("%s: seed 1 asks it %d times, seed 2 %d", k, n, b[k])
		}
	}
	for k, n := range visits {
		if n != 2 {
			t.Fatalf("two rounds visit %s %d times, want 2", k, n)
		}
	}
}

func TestFleetMutationsStayValid(t *testing.T) {
	f := NewFleet(1, 0)
	live := map[string]bool{}
	for _, j := range f.Initial {
		live[j.ID] = true
	}
	impaired := map[int]string{}
	kinds := map[string]int{}
	last := 0.0
	for i := range 2000 {
		m := f.Next()
		if i < len(fleetBlock) {
			kinds[m.Kind]++
		}
		switch m.Kind {
		case "submit":
			if live[m.Job.ID] {
				t.Fatalf("mutation %d resubmits %s", i, m.Job.ID)
			}
			if m.Job.GPUs%gpusPerNode != 0 || m.Job.GPUs <= 0 {
				t.Fatalf("mutation %d demands %d GPUs", i, m.Job.GPUs)
			}
			live[m.Job.ID] = true
		case "cancel":
			if !live[m.ID] {
				t.Fatalf("mutation %d cancels unknown job %s", i, m.ID)
			}
			delete(live, m.ID)
		case "fail_node", "degrade_nic":
			if _, hit := impaired[m.Node]; hit {
				t.Fatalf("mutation %d impairs node %d twice", i, m.Node)
			}
			impaired[m.Node] = m.Kind
		case "restore_node":
			for _, kind := range impaired {
				if kind == "fail_node" && impaired[m.Node] != "fail_node" {
					t.Fatalf("mutation %d restores node %d while failed nodes wait", i, m.Node)
				}
			}
			delete(impaired, m.Node)
		default:
			t.Fatalf("mutation %d has kind %q", i, m.Kind)
		}
		if m.At != 0 {
			if m.At < last {
				t.Fatalf("mutation %d goes back in time", i)
			}
			last = m.At
		}
		if len(live) > fleetMaxLive || len(impaired) > fleetMaxImpaired {
			t.Fatalf("mutation %d: %d live jobs, %d impaired nodes", i, len(live), len(impaired))
		}
	}
	// The live set starts below the limit, so the first block is the
	// exact 40/25/35 mix.
	if kinds["submit"] != 8 || kinds["cancel"] != 5 || kinds["fail_node"]+kinds["restore_node"]+kinds["degrade_nic"] != 7 {
		t.Fatalf("first block mixes %v", kinds)
	}
}
