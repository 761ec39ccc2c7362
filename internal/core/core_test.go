package core

import (
	"strings"
	"testing"

	"holmes/internal/comm"
	"holmes/internal/model"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

func planner(t *testing.T, topo *topology.Topology, group int) *Planner {
	t.Helper()
	pl, err := NewPlanner(topo, model.Group(group).Spec)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPlanHybridKeepsDPOnRDMA(t *testing.T) {
	pl := planner(t, topology.HybridEnv(8), 3)
	plan, err := pl.Plan(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.World.DPGroups {
		if !g.NIC.IsRDMA() {
			t.Fatalf("DP group %d on %v in hybrid plan", g.Index, g.NIC)
		}
	}
	if plan.Report.TFLOPS <= 0 {
		t.Fatal("no simulated performance")
	}
}

func TestSearchPipelinePicksFeasibleBest(t *testing.T) {
	pl := planner(t, topology.HybridEnv(4), 1)
	best, err := pl.SearchPipeline(1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Degrees.P < 1 || best.Degrees.P > 4 {
		t.Fatalf("searched p = %d", best.Degrees.P)
	}
	// The chosen plan beats (or equals) the p=1 baseline, which collapses
	// DP to Ethernet on a hybrid topology.
	base, err := pl.Plan(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := best.Report.Throughput / base.Report.Throughput; s < 1 {
		t.Fatalf("search picked a worse plan: speedup %.2f", s)
	}
	// On a hybrid topology the search must not pick p=1 (which forces all
	// DP over Ethernet).
	if best.Degrees.P == 1 {
		t.Fatal("search kept the Ethernet-collapsing p=1 plan")
	}
}

func TestCommunicationCostDPDominates(t *testing.T) {
	pl := planner(t, topology.HybridEnv(4), 1)
	plan, err := pl.Plan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := pl.CommunicationCost(plan)
	if err != nil {
		t.Fatal(err)
	}
	if costs[comm.DP] <= 0 || costs[comm.PP] <= 0 {
		t.Fatalf("degenerate costs: %v", costs)
	}
	// The paper's premise: data parallelism carries far more traffic than
	// pipeline parallelism, which is why DP gets the RDMA NICs.
	if costs[comm.DP] < costs[comm.PP] {
		t.Fatalf("DP traffic (%.2g) should exceed PP traffic (%.2g)", costs[comm.DP], costs[comm.PP])
	}
	if costs[comm.TP] != 0 {
		t.Fatalf("t=1 plan has tensor traffic %v", costs[comm.TP])
	}
}

func TestDescribeMentionsKeyFacts(t *testing.T) {
	pl := planner(t, topology.HybridEnv(4), 1)
	plan, err := pl.Plan(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Describe()
	for _, want := range []string{"t=1 p=2", "partition", "TFLOPS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Describe() missing %q:\n%s", want, s)
		}
	}
}

func TestPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(nil, model.Group(1).Spec); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := NewPlanner(topology.IBEnv(1), model.Spec{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	pl := planner(t, topology.IBEnv(2), 1)
	if _, err := pl.Plan(3, 2); err == nil {
		t.Fatal("non-tiling degrees accepted")
	}
}

func TestHolmesPlanBeatsMegatronLMOnHybrid(t *testing.T) {
	topo := topology.HybridEnv(8)
	spec := model.Group(3).Spec

	holmes := planner(t, topo, 3)
	hPlan, err := holmes.Plan(1, 4)
	if err != nil {
		t.Fatal(err)
	}

	lm, err := NewPlanner(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	lm.Framework = trainer.MegatronLM
	lmPlan, err := lm.Plan(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := hPlan.Report.Throughput / lmPlan.Report.Throughput; s < 1.1 {
		t.Fatalf("Holmes speedup over Megatron-LM = %.2f, want > 1.1 (paper: ~1.4)", s)
	}
}
