// Package holmes is the public facade of the Holmes reproduction: an
// LLM-training scheduler for heterogeneous NIC environments (Yang et al.,
// "Holmes: Towards Distributed Training Across Clusters with Heterogeneous
// NIC Environment", ICPP 2024) together with the simulated cluster/network
// substrate the experiments run on.
//
// Typical use:
//
//	topo := holmes.Hybrid(8)                    // 4 IB + 4 RoCE nodes
//	spec := holmes.ParameterGroup(3)            // GPT-7.5B, Table 2
//	plan, err := holmes.Plan(topo, spec, 1, 4)  // t=1, p=4
//	fmt.Print(plan.Describe())
//
// Multi-tenant use goes through an explicit Engine, which owns the
// communicator cache, the worker pool, and the simulation knobs; any
// number of goroutines can share one engine, and independent engines
// never interfere:
//
//	eng := holmes.NewEngine(holmes.EngineConfig{})
//	best, err := holmes.SearchPlanOn(eng, topo, spec)  // joint (t, p) search
//	rows, err := holmes.RunExperimentOn(eng, "table3")
//
// cmd/holmes-serve serves the same engine stack over JSON/HTTP through
// a throughput layer (NewServePool): one engine, admission control with
// 429 backpressure, request coalescing, a response cache, and a batch
// endpoint:
//
//	go run ./cmd/holmes-serve -addr :8080 &
//	curl -s localhost:8080/v1/plan -d '{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}'
//	curl -s localhost:8080/v1/plan/batch -d '{"items":[{"op":"search","config":{"env":"RoCE","nodes":4,"model":{"group":1}}}]}'
//	curl -s localhost:8080/v1/stats
//
// Scenarios script cluster events — degraded NICs, failed nodes,
// background traffic — onto the simulation clock, and replanning reacts
// to them on the post-event effective topology:
//
//	sc := &holmes.Scenario{Events: []holmes.ScenarioEvent{{Kind: "fail_node", At: 0, Node: 0}}}
//	rep, err := holmes.SimulateUnder(topo, spec, 1, 4, holmes.FrameworkHolmes, sc)
//	fix, err := holmes.Replan(topo, spec, sc)  // excludes the failed node
//
// A fleet schedules many jobs contending for one shared topology:
// NIC-affine slices carved per job (topology.Carve re-derives the §2.4
// rank numbering), FIFO + backfill, deterministic replay:
//
//	tr, err := holmes.LoadFleetTrace("trace.json")
//	sched, err := holmes.ReplayFleet(tr)  // placements, makespan, utilization
//	curl -s localhost:8080/v1/jobs -d '{"fleet":{"env":"Hybrid","nodes":8},"job":{"id":"a","gpus":16,"model":{"group":1}}}'
//
// The heavy lifting lives in the internal packages (topology, netsim,
// parallel, partition, pipeline, comm, trainer, core, engine, api); this
// package re-exports the stable surface.
package holmes

import (
	"fmt"
	"math"

	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/engine"
	"holmes/internal/events"
	"holmes/internal/experiments"
	"holmes/internal/fleet"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/serve"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// Re-exported types: aliases keep the public API thin while the
// implementations stay in internal packages.
type (
	// Topology is the cluster/node/GPU landscape to schedule over.
	Topology = topology.Topology
	// ClusterSpec describes one cluster for BuildTopology.
	ClusterSpec = topology.ClusterSpec
	// NICType enumerates InfiniBand, RoCE, Ethernet.
	NICType = topology.NICType
	// ModelSpec is a transformer architecture plus training shape.
	ModelSpec = model.Spec
	// TrainingPlan is a concrete Holmes scheduling decision with its
	// simulated performance report.
	TrainingPlan = core.Plan
	// Report carries TFLOPS / throughput / iteration time of a simulation.
	Report = trainer.Report
	// Framework selects a behaviour profile (Holmes, Megatron-LM, ...).
	Framework = trainer.Framework
	// Options are the mechanism knobs of a framework profile.
	Options = trainer.Options
	// ExperimentRow is one paper-vs-measured result row.
	ExperimentRow = experiments.Row
	// Engine owns the shared execution resources: the communicator LRU
	// cache, the bounded worker pool, and the netsim knobs. Immutable
	// after construction and safe for any number of goroutines.
	Engine = engine.Engine
	// EngineConfig fixes an Engine's behaviour at construction.
	EngineConfig = engine.Config
	// SearchStats counts joint-search work: cells simulated, pruned by
	// the admissible bound, aborted as provably lost (branch-and-bound),
	// the events the simulations fired, and whole searches answered
	// from the winner memo.
	SearchStats = engine.SearchStats
	// ServePool is the serving layer over one engine: admission is
	// bounded (shed load answers 429), and identical deterministic
	// requests are coalesced in flight and replayed from a response cache
	// afterwards.
	ServePool = serve.Pool
	// ServeConfig fixes a ServePool's shape at construction.
	ServeConfig = serve.Config
	// Scenario is a time-scripted timeline of cluster events (degraded
	// NICs, failed nodes, background traffic, joining nodes) applied to
	// a simulation's fabric and folded into replanning decisions.
	Scenario = scenario.Scenario
	// ScenarioEvent is one scripted occurrence of a Scenario.
	ScenarioEvent = scenario.Event
	// ReplanReport compares the pre-fault plan, its performance under a
	// scenario, and the replanned configuration on the effective topology.
	ReplanReport = core.Replan
	// FleetTrace is a replayable multi-job workload over one shared fleet
	// topology: the fleet spec, an optional scenario, and arriving jobs.
	FleetTrace = fleet.Trace
	// FleetSpec names the shared fleet topology of a trace (env/nodes
	// shorthand or explicit clusters).
	FleetSpec = fleet.Spec
	// FleetJob is one training job contending for the fleet.
	FleetJob = fleet.Job
	// FleetModel picks a fleet job's model: a Table-2 parameter group or
	// an explicit architecture (the serve API's model schema).
	FleetModel = config.ModelConfig
	// FleetSchedule is the deterministic outcome of replaying a trace:
	// per-job placements, makespan, utilization.
	FleetSchedule = fleet.Schedule
	// FleetPlacement is one job's slot in a fleet schedule.
	FleetPlacement = fleet.Placement
	// FleetManager is the concurrent fleet front end every FleetOperator
	// drives: submit, poll, and cancel jobs; every observer reads the
	// deterministic schedule of the live job set. A manager on an engine
	// with FullRecompute set replays every schedule from scratch.
	FleetManager = fleet.Manager
	// FleetOperator is the always-on face of one fleet: a FleetManager
	// driven by a wall clock and backed by an fsync'd mutation journal,
	// so a restarted process recovers its fleet and resumes scheduling
	// bit-identically to a process that never died.
	FleetOperator = fleet.Operator
	// FleetOperatorConfig configures NewFleetOperator (journal path,
	// clock, policy, snapshot cadence).
	FleetOperatorConfig = fleet.OperatorConfig
	// FleetClock abstracts wall time for the operator: the real
	// monotonic clock in production, fleet.NewFakeClock in tests.
	FleetClock = fleet.Clock
	// FleetJobStatus is one job's operator-eye view: placement plus
	// wall-clock state (queued / running / done / unplaced).
	FleetJobStatus = fleet.JobStatus
	// EventHub is the bounded pub/sub hub behind GET /v1/events: the
	// operator publishes job transitions, scenario edges, and policy
	// changes into it strictly after the journal fsync, and slow
	// subscribers are evicted rather than ever blocking a publisher.
	EventHub = events.Hub
	// Event is one fact on the hub: a sequenced, wall-stamped job /
	// scenario / policy / retire occurrence.
	Event = events.Event
	// EventSubscriber is one bounded subscription to an EventHub.
	EventSubscriber = events.Subscriber
)

// NIC technologies.
const (
	InfiniBand = topology.InfiniBand
	RoCE       = topology.RoCE
	Ethernet   = topology.Ethernet
)

// Framework profiles.
const (
	FrameworkHolmes            = trainer.Holmes
	FrameworkMegatronLM        = trainer.MegatronLM
	FrameworkMegatronDeepSpeed = trainer.MegatronDeepSpeed
	FrameworkMegatronLLaMA     = trainer.MegatronLLaMA
)

// IB builds a homogeneous InfiniBand cluster of n nodes (8 GPUs each).
func IB(n int) *Topology { return topology.IBEnv(n) }

// RoCECluster builds a homogeneous RoCE cluster of n nodes.
func RoCECluster(n int) *Topology { return topology.RoCEEnv(n) }

// EthernetCluster builds a commodity Ethernet-only cluster of n nodes.
func EthernetCluster(n int) *Topology { return topology.EthernetEnv(n) }

// Hybrid builds the paper's hybrid environment: n/2 InfiniBand nodes plus
// n/2 RoCE nodes joined only by Ethernet (n must be even).
func Hybrid(n int) *Topology { return topology.HybridEnv(n) }

// BuildTopology assembles an arbitrary multi-cluster topology.
func BuildTopology(clusters ...ClusterSpec) (*Topology, error) {
	return topology.Build(topology.Spec{Clusters: clusters})
}

// ParameterGroup returns Table 2's parameter group id (1–4).
func ParameterGroup(id int) ModelSpec { return model.Group(id).Spec }

// GPT39B returns the 39.1-billion-parameter scalability model (Figure 7).
func GPT39B(globalBatch int) ModelSpec { return model.GPT39B(globalBatch) }

// NewEngine constructs an isolated engine. Zero config fields take
// defaults (CPU-count concurrency, 512-entry cache, incremental netsim).
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// DefaultEngine returns the shared process-wide engine the engine-less
// entry points (Plan, AutoPlan, RunExperiment, ...) delegate to.
func DefaultEngine() *Engine { return engine.Default() }

// NewServePool constructs the serving layer cmd/holmes-serve runs on
// (see ServePool). Zero config fields take defaults: a CPU-count worker
// pool, max(8, 2×CPU) admitted requests with an 8× queue, a 4096-entry
// response cache.
func NewServePool(cfg ServeConfig) *ServePool { return serve.New(cfg) }

// Plan builds a Holmes training plan for the topology with tensor degree
// t and pipeline degree p, simulating one iteration for its report.
func Plan(topo *Topology, spec ModelSpec, t, p int) (*TrainingPlan, error) {
	return PlanOn(nil, topo, spec, t, p)
}

// PlanOn is Plan on an explicit engine (nil = the shared default).
func PlanOn(eng *Engine, topo *Topology, spec ModelSpec, t, p int) (*TrainingPlan, error) {
	pl, err := core.NewPlannerOn(eng, topo, spec)
	if err != nil {
		return nil, err
	}
	return pl.Plan(t, p)
}

// PlanWith is Plan under a specific framework profile and option set
// (opt may be nil for the profile defaults).
func PlanWith(topo *Topology, spec ModelSpec, t, p int, fw Framework, opt *Options) (*TrainingPlan, error) {
	pl, err := core.NewPlanner(topo, spec)
	if err != nil {
		return nil, err
	}
	pl.Framework = fw
	pl.Opt = opt
	return pl.Plan(t, p)
}

// AutoPlan searches the pipeline degree for the best plan at tensor
// degree t.
func AutoPlan(topo *Topology, spec ModelSpec, t int) (*TrainingPlan, error) {
	return AutoPlanOn(nil, topo, spec, t)
}

// AutoPlanOn is AutoPlan on an explicit engine (nil = the shared
// default).
func AutoPlanOn(eng *Engine, topo *Topology, spec ModelSpec, t int) (*TrainingPlan, error) {
	pl, err := core.NewPlannerOn(eng, topo, spec)
	if err != nil {
		return nil, err
	}
	return pl.SearchPipeline(t)
}

// SearchPlan searches tensor and pipeline degrees jointly over every
// feasible (t, p) cell and returns the best plan, deterministically (the
// winner never depends on pool scheduling).
func SearchPlan(topo *Topology, spec ModelSpec) (*TrainingPlan, error) {
	return SearchPlanOn(nil, topo, spec)
}

// SearchPlanOn is SearchPlan on an explicit engine (nil = the shared
// default).
func SearchPlanOn(eng *Engine, topo *Topology, spec ModelSpec) (*TrainingPlan, error) {
	pl, err := core.NewPlannerOn(eng, topo, spec)
	if err != nil {
		return nil, err
	}
	return pl.SearchPlan()
}

// Simulate runs one training iteration of the given framework and
// returns its performance report.
func Simulate(topo *Topology, spec ModelSpec, t, p int, fw Framework) (Report, error) {
	return trainer.Simulate(trainer.Config{
		Topo: topo, Spec: spec, TensorSize: t, PipelineSize: p, Framework: fw,
	})
}

// SimulateUnder is Simulate with a scripted scenario bound to the fabric:
// the report measures the iteration under the timeline's events. A nil or
// empty scenario is bit-identical to Simulate.
func SimulateUnder(topo *Topology, spec ModelSpec, t, p int, fw Framework, sc *Scenario) (Report, error) {
	return trainer.Simulate(trainer.Config{
		Topo: topo, Spec: spec, TensorSize: t, PipelineSize: p, Framework: fw,
		Scenario: sc,
	})
}

// LoadScenario parses and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.LoadFile(path) }

// Replan reacts to a scenario: it searches the best plan on the pristine
// topology, measures that plan under the scenario, and re-runs the joint
// (t, p) search on the post-event effective topology (failed nodes
// excluded, degraded NICs at reduced rate, joined nodes added).
func Replan(topo *Topology, spec ModelSpec, sc *Scenario) (*ReplanReport, error) {
	return ReplanOn(nil, topo, spec, sc)
}

// ReplanOn is Replan on an explicit engine (nil = the shared default).
func ReplanOn(eng *Engine, topo *Topology, spec ModelSpec, sc *Scenario) (*ReplanReport, error) {
	pl, err := core.NewPlannerOn(eng, topo, spec)
	if err != nil {
		return nil, err
	}
	return pl.ReplanOn(sc, math.Inf(1))
}

// ReplayFleet schedules a multi-job trace over its shared fleet
// topology: NIC-affine carved slices, engine-backed joint (t, p) plan
// search per slice, FIFO + backfill with deterministic tie-breaking.
// The same trace always produces the identical schedule.
func ReplayFleet(tr *FleetTrace) (*FleetSchedule, error) { return ReplayFleetOn(nil, tr) }

// ReplayFleetOn is ReplayFleet on an explicit engine (nil = the shared
// default).
func ReplayFleetOn(eng *Engine, tr *FleetTrace) (*FleetSchedule, error) {
	return fleet.Replay(eng, tr)
}

// LoadFleetTrace parses and validates a fleet trace JSON file.
func LoadFleetTrace(path string) (*FleetTrace, error) {
	tr, err := fleet.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// NewFleetManager builds the concurrent fleet front end over one shared
// topology (nil engine = the shared default) — submit/poll/cancel from
// any number of goroutines, deterministic schedule at every instant.
func NewFleetManager(eng *Engine, topo *Topology) (*FleetManager, error) {
	return fleet.NewManager(eng, topo)
}

// NewFleetOperator opens (or recovers) the durable always-on fleet at
// cfg.Journal: submits are stamped with wall time, finished work is
// retired at idle barriers, and every mutation is journaled so a
// restart resumes the fleet bit-identically (nil engine = the shared
// default). An empty cfg.Journal runs the same operator in memory.
func NewFleetOperator(eng *Engine, spec FleetSpec, cfg FleetOperatorConfig) (*FleetOperator, error) {
	return fleet.NewOperator(eng, spec, cfg)
}

// FleetPolicies lists the scheduling policies a fleet can run under
// (fifo, priority, edf, fair).
func FleetPolicies() []string { return fleet.PolicyNames() }

// NewEventHub builds the bounded pub/sub hub an operator publishes
// into (pass it as FleetOperatorConfig.Events, or let the serve API
// own one and stream it at GET /v1/events).
func NewEventHub() *EventHub { return events.NewHub() }

// RunExperiment regenerates a paper table or figure by id: "table1",
// "table3", "table4", "fig4", "fig5", "fig6", "fig7", plus the
// beyond-paper "scenarios" and "fleet" grids.
func RunExperiment(id string) ([]ExperimentRow, error) {
	return RunExperimentOn(nil, id)
}

// RunExperimentOn is RunExperiment on an explicit engine (nil = the
// shared default).
func RunExperimentOn(eng *Engine, id string) ([]ExperimentRow, error) {
	return experiments.NewSuite(eng).Run(id)
}

// Experiments lists the experiment ids in paper order.
func Experiments() []string { return append([]string(nil), experiments.Names...) }

// DefaultOptions returns a framework's profile for customization.
func DefaultOptions(fw Framework) Options { return trainer.DefaultOptions(fw) }

// Version identifies the reproduction release.
const Version = "1.5.0"

// Describe renders a short summary of a topology (clusters, NICs, GPUs).
func Describe(topo *Topology) string {
	if topo == nil {
		return "<nil topology>"
	}
	return fmt.Sprint(topo)
}
