package core

import (
	"fmt"
	"math"
	"strings"

	"holmes/internal/scenario"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// Replan is the outcome of fault-aware replanning: the plan the scheduler
// held before the events, what that plan actually delivers while the
// events are live, and the plan a fresh joint (t, p) search finds on the
// post-event effective topology.
type Replan struct {
	// Before is the winning plan on the pristine topology.
	Before *Plan
	// Degraded is Before's degrees re-simulated with the scenario bound
	// to the fabric: what the old plan delivers under the events.
	Degraded trainer.Report
	// After is the winning plan of a fresh search on the effective
	// topology (failed nodes excluded, degraded NICs at reduced rate,
	// joined nodes added).
	After *Plan
	// EffectiveTopo is the topology After was planned on.
	EffectiveTopo *topology.Topology
	// ExcludedNodes lists failed nodes by original global index.
	ExcludedNodes []int
	// At is the instant the timeline was folded at (+Inf = after every
	// event).
	At float64
}

// RecoveryFactor is After's throughput over Degraded's: how much of the
// loss replanning claws back (> 1 means the replan helps).
func (r *Replan) RecoveryFactor() float64 {
	if r.Degraded.Throughput == 0 {
		return math.NaN()
	}
	return r.After.Report.Throughput / r.Degraded.Throughput
}

// RetainedFraction is After's throughput over Before's: how close the
// replanned cluster comes to its pre-fault performance.
func (r *Replan) RetainedFraction() float64 {
	if r.Before.Report.Throughput == 0 {
		return math.NaN()
	}
	return r.After.Report.Throughput / r.Before.Report.Throughput
}

// Describe renders the replan for operators.
func (r *Replan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "before:   t=%d p=%d d=%d  %.2f samples/s\n",
		r.Before.Degrees.T, r.Before.Degrees.P, r.Before.Degrees.D, r.Before.Report.Throughput)
	fmt.Fprintf(&b, "degraded: same plan under scenario  %.2f samples/s\n", r.Degraded.Throughput)
	fmt.Fprintf(&b, "after:    t=%d p=%d d=%d  %.2f samples/s on %d node(s) (excluded %v)\n",
		r.After.Degrees.T, r.After.Degrees.P, r.After.Degrees.D, r.After.Report.Throughput,
		r.EffectiveTopo.NumNodes(), r.ExcludedNodes)
	fmt.Fprintf(&b, "recovery: %.1fx over the degraded plan, %.0f%% of pre-fault throughput\n",
		r.RecoveryFactor(), 100*r.RetainedFraction())
	return b.String()
}

// ReplanOn reacts to a scenario: it searches the pristine plan, measures
// that plan under the scenario's events, folds the timeline at the given
// instant into an effective topology (math.Inf(1) = after every event),
// and re-runs the joint (t, p) search there. All three simulations share
// the planner's engine, so communicator worlds are reused wherever the
// topologies coincide.
func (pl *Planner) ReplanOn(sc *scenario.Scenario, at float64) (*Replan, error) {
	if sc.Empty() {
		return nil, fmt.Errorf("core: replan needs a non-empty scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := sc.ValidateFor(pl.Topo); err != nil {
		return nil, err
	}
	before, err := pl.SearchPlan()
	if err != nil {
		return nil, fmt.Errorf("core: replan baseline: %w", err)
	}
	return pl.ReplanFrom(before, sc, at)
}

// ReplanFrom is ReplanOn for a caller that already holds the pre-event
// plan — the fleet scheduler replans an evicted job from the plan its
// slice was running, so searching the baseline again would only repeat
// work. The plan must have been produced by this planner (same topology
// and spec).
func (pl *Planner) ReplanFrom(before *Plan, sc *scenario.Scenario, at float64) (*Replan, error) {
	if before == nil {
		return nil, fmt.Errorf("core: replan needs the pre-event plan")
	}
	if sc.Empty() {
		return nil, fmt.Errorf("core: replan needs a non-empty scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := sc.ValidateFor(pl.Topo); err != nil {
		return nil, err
	}
	degraded, err := trainer.Simulate(trainer.Config{
		Topo: pl.Topo, Spec: pl.Spec,
		TensorSize: before.Degrees.T, PipelineSize: before.Degrees.P,
		Framework: pl.Framework, Opt: pl.Opt,
		Engine:   pl.engine(),
		Scenario: sc,
	})
	if err != nil {
		return nil, fmt.Errorf("core: replan degraded arm: %w", err)
	}
	eff, excluded, err := sc.EffectiveTopology(pl.Topo, at)
	if err != nil {
		return nil, err
	}
	effPl, err := NewPlannerOn(pl.engine(), eff, pl.Spec)
	if err != nil {
		return nil, err
	}
	effPl.Framework = pl.Framework
	effPl.Opt = pl.Opt
	after, err := effPl.SearchPlan()
	if err != nil {
		return nil, fmt.Errorf("core: no feasible plan on the effective topology: %w", err)
	}
	return &Replan{
		Before:        before,
		Degraded:      degraded,
		After:         after,
		EffectiveTopo: eff,
		ExcludedNodes: excluded,
		At:            at,
	}, nil
}
