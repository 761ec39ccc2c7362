// Package fleet schedules many training jobs over one shared
// heterogeneous-NIC topology. The paper plans a single job that owns the
// whole fabric; a production fleet has jobs arriving continuously and
// contending for the same GPUs. The scheduler carves node-disjoint
// sub-topologies out of the fleet — NIC-affine first, per the paper's
// §2.4 cluster-grouping rule, with topology.Carve re-deriving the rank
// numbering on every slice — scores candidate placements with the
// engine-backed joint (t, p) SearchPlan, and runs FIFO with EASY
// backfill under fully deterministic tie-breaking: a given trace always
// produces the identical schedule, regardless of engine concurrency or
// shard count.
//
// Scenario events thread through the replay clock: fail_node evicts and
// requeues exactly the jobs whose slice lost the node (their residual
// recovery is measured by core replanning), degrade_nic replans affected
// jobs in place on their degraded slice, and restore_node returns
// capacity to the free pool.
package fleet

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"

	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// Job is one training job contending for the fleet: a model, a GPU
// demand, and an arrival instant on the virtual clock.
type Job struct {
	// ID names the job; unique within a trace.
	ID string `json:"id"`
	// Submit is the arrival instant in virtual seconds (0 = trace start).
	Submit float64 `json:"submit,omitempty"`
	// GPUs is the demand: a positive multiple of the fleet's GPUs-per-node
	// (slices are carved in whole nodes).
	GPUs int `json:"gpus"`
	// Iterations is the training length in iterations (default 1);
	// runtime = iterations × the planned iteration time.
	Iterations int `json:"iterations,omitempty"`
	// Deadline, when positive, is the instant the job should finish by.
	// The scheduler stays FIFO-fair and only reports misses.
	Deadline float64 `json:"deadline,omitempty"`
	// Model picks a Table-2 parameter group or an explicit architecture
	// (same schema as the serve API).
	Model config.ModelConfig `json:"model"`
	// Framework selects the behaviour profile (default Holmes).
	Framework string `json:"framework,omitempty"`
	// Priority is the job's tier under the "priority" policy: higher
	// runs first and may preempt strictly lower tiers. Other policies
	// ignore it. Default 0.
	Priority int `json:"priority,omitempty"`
	// Tenant groups jobs for the "fair" policy's weighted fair-share
	// accounting. Empty = the job is its own tenant.
	Tenant string `json:"tenant,omitempty"`
	// Weight scales the tenant's fair share (default 1). Must be
	// positive when set.
	Weight float64 `json:"weight,omitempty"`
}

// Spec describes the shared fleet topology of a trace: the env/nodes
// shorthand or an explicit cluster list (config.Config semantics).
type Spec struct {
	Env         string                 `json:"env,omitempty"`
	Nodes       int                    `json:"nodes,omitempty"`
	Clusters    []config.ClusterConfig `json:"clusters,omitempty"`
	GPUsPerNode int                    `json:"gpus_per_node,omitempty"`
}

// Topology materializes the fleet topology.
func (f Spec) Topology() (*topology.Topology, error) {
	c := config.Config{Env: f.Env, Nodes: f.Nodes, Clusters: f.Clusters, GPUsPerNode: f.GPUsPerNode}
	return c.Topology()
}

// Trace is a replayable fleet workload: the shared topology, an optional
// scripted event timeline, and the arriving jobs.
type Trace struct {
	Name     string             `json:"name,omitempty"`
	Fleet    Spec               `json:"fleet"`
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	Jobs     []Job              `json:"jobs"`
	// Policy names the scheduling policy ("" = "fifo"); see PolicyNames.
	Policy string `json:"policy,omitempty"`
}

// Load parses a trace from JSON, rejecting unknown fields and trailing
// data.
func Load(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := config.DecodeStrict(r, &tr); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &tr, nil
}

// LoadFile parses a trace file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Degrees is the (t, p, d) triple of a placement, JSON-shaped for golden
// files and the serve API.
type Degrees struct {
	Tensor   int `json:"tensor"`
	Pipeline int `json:"pipeline"`
	Data     int `json:"data"`
}

// Placement is one job's slot in the schedule.
type Placement struct {
	JobID string `json:"job"`
	// Nodes is the slice the job (last) ran on, by original fleet node
	// index, ascending. Empty when the job could never be placed.
	Nodes   []int   `json:"nodes,omitempty"`
	Degrees Degrees `json:"degrees"`
	// Start is the instant the job first began executing; Finish the
	// instant it completed; Waited = Start − Submit.
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	Waited float64 `json:"waited"`
	// IterSeconds / Throughput / TFLOPS / Partition describe the winning
	// plan on the job's slice (the latest plan, after any replans).
	IterSeconds float64 `json:"iteration_seconds"`
	Throughput  float64 `json:"samples_per_sec"`
	TFLOPS      float64 `json:"tflops_per_gpu"`
	Partition   string  `json:"partition,omitempty"`
	// Backfilled marks a job started ahead of a blocked queue head under
	// the EASY reservation.
	Backfilled bool `json:"backfilled,omitempty"`
	// Evictions counts fail_node requeues; Replans counts in-place
	// degrade_nic replans; Recovery is the core replanner's recovery
	// factor for the last eviction (replanned-over-degraded throughput on
	// the residual slice; 0 when the slice had no survivors).
	Evictions int     `json:"evictions,omitempty"`
	Replans   int     `json:"replans,omitempty"`
	Recovery  float64 `json:"recovery,omitempty"`
	// Preemptions counts requeues forced by a higher-entitled job under
	// a preemptive policy (never by a fault).
	Preemptions int `json:"preemptions,omitempty"`
	// MissedDeadline reports Finish > Deadline for deadline jobs.
	MissedDeadline bool `json:"missed_deadline,omitempty"`
	// Unplaced carries the reason a job could never run (demand beyond
	// surviving capacity, or no feasible plan on any slice).
	Unplaced string `json:"unplaced,omitempty"`
}

// Schedule is the deterministic outcome of replaying a trace.
type Schedule struct {
	Trace string `json:"trace,omitempty"`
	// Policy is the scheduling policy that produced this schedule
	// (omitted for the default FIFO).
	Policy string `json:"policy,omitempty"`
	Nodes  int    `json:"nodes"`
	GPUs   int    `json:"gpus"`
	// Jobs holds one placement per trace job, in trace order.
	Jobs []Placement `json:"jobs"`
	// Makespan is the completion instant of the last job; Utilization is
	// busy GPU-seconds over fleet GPU-seconds across the makespan.
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
	// ScenarioEvents counts the timeline events applied during replay.
	ScenarioEvents int `json:"scenario_events,omitempty"`
}

// Scheduler replays traces over one fleet topology on one engine. A
// Scheduler carries no trace state between Replay calls and is safe for
// concurrent replays; slice plans are memoized on the engine's shared
// plan cache, so identical carve fingerprints hit across jobs, across
// schedulers, and across every fleet bound to the same engine shard.
type Scheduler struct {
	topo *topology.Topology
	eng  *engine.Engine
	fp   string // topo's fingerprint: the fleet half of every sliceKey
	// fanned counts the plan-cache misses handed to the engine's worker
	// pool (see fanOut).
	fanned atomic.Uint64
}

// planKey identifies one joint (t, p) search: the carved slice's
// structural fingerprint (degrade factors included — they change the
// per-node Gbps the fingerprint covers), the model, and the framework.
// The type is package-private, so fleet entries can never collide with
// another package's keys in the engine's shared plan cache.
type planKey struct {
	fp   string
	spec model.Spec
	fw   trainer.Framework
}

type planEntry struct {
	planner *core.Planner
	plan    *core.Plan
	err     error
}

// recoveryKey identifies one eviction recovery factor: the evicted
// slice's plan key and the failed node's index within the slice. Fleet
// planners carry no Opt, so the pair is the factor's whole input, and the
// factor (a float64, 0 on error) is memoized on the plan cache next to
// the slice plans.
type recoveryKey struct {
	slice planKey
	local int
}

// sliceKey identifies one candidate slice's carve: the fleet topology's
// fingerprint, and per slice node its original index and the bits of its
// cumulative rdma and eth factors. The carved slice's fingerprint is a
// pure function of the pair, so it is memoized on the plan cache as a
// sliceEntry next to the slice plans it keys.
type sliceKey struct {
	fleet string
	nodes string
}

// sliceEntry is a memoized carve outcome: the slice's fingerprint, or
// the carve's error.
type sliceEntry struct {
	fp  string
	err error
}

// NewScheduler validates the fleet topology and binds it to an engine
// (nil = the shared default engine).
func NewScheduler(eng *engine.Engine, topo *topology.Topology) (*Scheduler, error) {
	if topo == nil {
		return nil, fmt.Errorf("fleet: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = engine.Default()
	}
	return &Scheduler{topo: topo, eng: eng, fp: topo.Fingerprint()}, nil
}

// Topology exposes the fleet topology.
func (s *Scheduler) Topology() *topology.Topology { return s.topo }

// Replay builds the trace's fleet topology and replays the jobs on the
// given engine — the one-call entry point of cmd/holmes-fleet and the
// facade.
func Replay(eng *engine.Engine, tr *Trace) (*Schedule, error) {
	topo, err := tr.Fleet.Topology()
	if err != nil {
		return nil, err
	}
	s, err := NewScheduler(eng, topo)
	if err != nil {
		return nil, err
	}
	return s.Replay(tr)
}

// rjob is one resolved, validated job; job is kept as submitted.
type rjob struct {
	idx    int // trace position: the deterministic tie-breaker
	job    Job
	spec   model.Spec
	fw     trainer.Framework
	iters  int     // resolved iterations (1 when unset)
	nodes  int     // demand in whole nodes
	tenant string  // resolved tenant (job ID when unset)
	weight float64 // resolved fair-share weight (1 when unset)
}

// resolveJob validates one job against the fleet topology — non-empty
// ID, finite non-negative submit, whole-node GPU demand within the
// fleet, resolvable model, known framework — and resolves it for the
// replay. Trace replay resolves every job of the trace; a Manager
// resolves each job once, at Submit.
func resolveJob(topo *topology.Topology, idx int, j Job) (rjob, error) {
	if j.ID == "" {
		return rjob{}, fmt.Errorf("fleet: job %d has no id", idx)
	}
	if j.Submit < 0 || math.IsNaN(j.Submit) || math.IsInf(j.Submit, 0) {
		return rjob{}, fmt.Errorf("fleet: job %q has bad submit time %v", j.ID, j.Submit)
	}
	if j.Iterations < 0 {
		return rjob{}, fmt.Errorf("fleet: job %q has negative iterations", j.ID)
	}
	if j.Deadline != 0 && (j.Deadline <= j.Submit || math.IsNaN(j.Deadline) || math.IsInf(j.Deadline, 0)) {
		return rjob{}, fmt.Errorf("fleet: job %q deadline %v not after submit %v", j.ID, j.Deadline, j.Submit)
	}
	if j.Weight < 0 || math.IsNaN(j.Weight) || math.IsInf(j.Weight, 0) {
		return rjob{}, fmt.Errorf("fleet: job %q has bad weight %v (must be positive, or 0 for the default)", j.ID, j.Weight)
	}
	g := topo.GPUsPerNode
	if j.GPUs <= 0 || j.GPUs%g != 0 {
		return rjob{}, fmt.Errorf("fleet: job %q demands %d GPUs; demand must be a positive multiple of the fleet's %d GPUs per node", j.ID, j.GPUs, g)
	}
	if j.GPUs > topo.NumDevices() {
		return rjob{}, fmt.Errorf("fleet: job %q demands %d GPUs; the fleet has %d", j.ID, j.GPUs, topo.NumDevices())
	}
	cfg := config.Config{Model: j.Model}
	spec, err := cfg.Spec()
	if err != nil {
		return rjob{}, fmt.Errorf("fleet: job %q: %w", j.ID, err)
	}
	fw := trainer.Framework(j.Framework)
	if j.Framework == "" {
		fw = trainer.Holmes
	} else {
		known := false
		for _, f := range trainer.AllFrameworks {
			if fw == f {
				known = true
				break
			}
		}
		if !known {
			return rjob{}, fmt.Errorf("fleet: job %q has unknown framework %q", j.ID, j.Framework)
		}
	}
	tenant := j.Tenant
	if tenant == "" {
		tenant = j.ID
	}
	weight := j.Weight
	if weight == 0 {
		weight = 1
	}
	return rjob{idx: idx, job: j, spec: spec, fw: fw, iters: max(j.Iterations, 1), nodes: j.GPUs / g, tenant: tenant, weight: weight}, nil
}

// validateScenario checks the fleet-supported event kinds: the replay
// clock understands node failure, restoration, and NIC degradation, and
// lowerEvents folds stragglers, cluster failures, link flaps, and
// loss/corrupt derates down to those primitives. Background traffic and
// elastic joins belong to the simulation layer, and partitions to the
// fabric's trunks, which the placement carve does not model.
func validateScenario(topo *topology.Topology, sc *scenario.Scenario) error {
	if sc.Empty() {
		return nil
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	if err := sc.ValidateFor(topo); err != nil {
		return err
	}
	for i, ev := range sc.Events {
		if err := supportedKind(i, ev); err != nil {
			return err
		}
	}
	return nil
}

// validateEvent checks the i-th event of a timeline whose earlier events
// validateScenario already accepted, with the error validateScenario
// would report for the whole timeline.
func validateEvent(topo *topology.Topology, i int, ev scenario.Event) error {
	if err := scenario.ValidateEvent(i, ev, topo); err != nil {
		return err
	}
	return supportedKind(i, ev)
}

func supportedKind(i int, ev scenario.Event) error {
	switch ev.Kind {
	case scenario.FailNode, scenario.RestoreNode, scenario.DegradeNIC,
		scenario.Straggler, scenario.FailCluster, scenario.FlapLink,
		scenario.Loss, scenario.Corrupt, scenario.Delay, scenario.Jitter:
		return nil
	}
	return fmt.Errorf("fleet: event %d: kind %q is not supported by the fleet scheduler (node, impairment, and cluster fault kinds only)", i, ev.Kind)
}

// Validate checks a whole trace against its own fleet spec.
func (tr *Trace) Validate() error {
	topo, err := tr.Fleet.Topology()
	if err != nil {
		return err
	}
	if len(tr.Jobs) == 0 {
		return fmt.Errorf("fleet: trace has no jobs")
	}
	seen := make(map[string]int, len(tr.Jobs))
	for i, j := range tr.Jobs {
		if _, err := resolveJob(topo, i, j); err != nil {
			return err
		}
		if first, dup := seen[j.ID]; dup {
			return fmt.Errorf("fleet: jobs %d and %d share id %q", first, i, j.ID)
		}
		seen[j.ID] = i
	}
	if _, err := PolicyByName(tr.Policy); err != nil {
		return err
	}
	return validateScenario(topo, tr.Scenario)
}
