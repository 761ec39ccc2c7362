// Package trainer simulates one end-to-end LLM training iteration on a
// heterogeneous-NIC topology: compute, the pipeline schedule, data-parallel
// gradient synchronization, and the optimizer step, all sharing one
// discrete-event fabric so that every contention effect the paper measures
// (Tables 1, 3, 4; Figures 4–7) emerges from the same mechanism.
//
// The computational model: per-stage compute time comes from the Megatron
// FLOPs formula at a fixed compute-only MFU; every byte of communication —
// inter-stage activations/gradients, gradient reduce-scatter, parameter
// all-gather — travels as flows on the netsim fabric, contending with
// everything else in flight. The iteration ends when every data-parallel
// group has reduced, gathered, and stepped.
package trainer

import (
	"fmt"
	"math"

	"holmes/internal/collective"
	"holmes/internal/comm"
	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/netsim"
	"holmes/internal/parallel"
	"holmes/internal/partition"
	"holmes/internal/pipeline"
	"holmes/internal/scenario"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

// Config describes one simulated training run.
type Config struct {
	Topo *topology.Topology
	Spec model.Spec
	// TensorSize and PipelineSize fix t and p; d = N/(t·p).
	TensorSize   int
	PipelineSize int
	Framework    Framework
	// Opt overrides the framework profile when non-nil (ablations).
	Opt *Options
	// Engine supplies the shared execution resources: the communicators
	// come from (and land in) the engine's LRU cache, and the engine's
	// FullRecompute knob selects the netsim oracle. Nil means build
	// communicators ad hoc and use the incremental rebalancer.
	Engine *engine.Engine
	// Scenario scripts cluster events (NIC degradation, node failure,
	// background traffic) onto the iteration's fabric at their simulated
	// instants, so the report measures step time under the events rather
	// than on a pristine fabric. Nil or empty is a guaranteed no-op: the
	// run is bit-identical to one without a scenario. The plan itself
	// (partition, NIC selection) is made on pre-fault knowledge — reacting
	// to events is the replanner's job (core.Planner.ReplanOn).
	Scenario *scenario.Scenario
}

// Report is the outcome of one simulated iteration.
type Report struct {
	Framework Framework
	Env       string
	Degrees   parallel.Degrees
	Partition partition.Result
	Micro     int

	// IterSeconds is one training iteration's wall time.
	IterSeconds float64
	// TFLOPS is achieved teraFLOP/s per GPU (the paper's metric).
	TFLOPS float64
	// Throughput is samples/s (the paper's metric).
	Throughput float64
	// ReduceScatterSeconds is the wall time of gradient reduce-scatter for
	// the slowest data-parallel group (Figure 4's metric).
	ReduceScatterSeconds float64
	// PipelineSeconds is the pipeline (compute + P2P) portion.
	PipelineSeconds float64
	// Scenario labels the event timeline the iteration ran under
	// (empty = pristine fabric); ScenarioEvents counts the timeline
	// events that fired before the iteration completed.
	Scenario       string
	ScenarioEvents int
}

// EnvLabel derives the paper's environment name from a topology.
func EnvLabel(topo *topology.Topology) string {
	if topo.NumClusters() > 1 {
		types := map[topology.NICType]bool{}
		for _, c := range topo.Clusters {
			types[c.NICType] = true
		}
		if len(types) > 1 {
			return string(topology.EnvHybrid)
		}
	}
	return topo.Clusters[0].NICType.String()
}

// Simulate runs one training iteration and reports the paper's metrics.
func Simulate(cfg Config) (Report, error) {
	it, err := Prepare(cfg)
	if err != nil {
		return Report{}, err
	}
	rep, _, err := it.Run(nil)
	return rep, err
}

// Iteration is one training iteration prepared for its event run: the
// communicators, the pristine fabric, the partition and the per-stage
// compute times. LowerBound evaluates it in closed form and Run runs its
// events, so the bound and the simulation share one placement and one
// partition, and a bounded run's abort projection reuses the terms the
// bound computed.
type Iteration struct {
	cfg    Config
	opt    Options
	calib  Calibration
	deg    parallel.Degrees
	assign *parallel.Assignment
	world  *comm.World
	m      int // micro-batches per pipeline

	eng  *sim.Engine
	fab  *netsim.Fabric // pristine: no scenario bound yet
	part partition.Result
	// tf and tb are each stage's forward and backward seconds per
	// micro-batch; actBytes is one inter-stage hop's payload.
	tf, tb   []float64
	actBytes float64
	// beat and pipesPerNode set each pipeline's start stagger.
	beat         float64
	pipesPerNode int

	// terms is the bound and its terms, once LowerBound or a bounded
	// run has evaluated them (bounded).
	terms   boundTerms
	bounded bool
}

// Prepare validates the configuration and sets up its iteration: the
// world from the engine cache (or built ad hoc), the fabric, the
// partition and the per-stage compute times.
func Prepare(cfg Config) (*Iteration, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("trainer: nil topology")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	opt := DefaultOptions(cfg.Framework)
	if cfg.Opt != nil {
		opt = *cfg.Opt
	}
	calib := DefaultCalibration()
	calib.Net.FullRecompute = cfg.Engine != nil && cfg.Engine.FullRecompute()

	n := cfg.Topo.NumDevices()
	t, p := cfg.TensorSize, cfg.PipelineSize
	deg, err := parallel.TileDegrees(n, t, p)
	if err != nil {
		return nil, err
	}
	var assign *parallel.Assignment
	var world *comm.World
	if cfg.Engine != nil {
		assign, world, err = cfg.Engine.World(cfg.Topo, deg, opt.NICSelection)
		if err != nil {
			return nil, err
		}
	} else {
		assign, err = parallel.New(n, cfg.Topo.GPUsPerNode, deg)
		if err != nil {
			return nil, err
		}
		world, err = comm.BuildWorld(cfg.Topo, assign, opt.NICSelection)
		if err != nil {
			return nil, err
		}
	}
	m, err := cfg.Spec.MicroBatches(deg.D)
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine()
	fab := newFabric(eng, cfg.Topo, calib.Net)
	dpPerLayer := stageDPPerLayer(cfg, calib, assign, world, fab)
	part, err := makePartition(cfg, opt, calib, assign, m, dpPerLayer)
	if err != nil {
		return nil, err
	}

	// Per-stage compute times per micro-batch (forward = 1/3 of the F+B
	// work, backward = 2/3). The vocabulary projection runs on the last
	// stage.
	effFLOPS := calib.PeakTFLOPS * 1e12 * calib.ComputeMFU
	tf := make([]float64, p)
	tb := make([]float64, p)
	layerWork := func(layers int) float64 {
		return cfg.Spec.FLOPsForLayers(layers, cfg.Spec.MicroBatch) / float64(t)
	}
	vocabWork := (cfg.Spec.FLOPsPerIteration() - cfg.Spec.FLOPsForLayers(cfg.Spec.Layers, cfg.Spec.GlobalBatch)) /
		float64(cfg.Spec.GlobalBatch) * float64(cfg.Spec.MicroBatch) / float64(t)
	for s := 0; s < p; s++ {
		work := layerWork(part.Layers[s])
		if s == p-1 {
			work += vocabWork
		}
		// Tensor-parallel collectives: Megatron's f/g operators all-reduce
		// the layer activations twice per layer in forward and twice in
		// backward across the tensor group. Tensor groups live inside one
		// node (§2.4), so the cost is analytic ring time on the intra-node
		// interconnect — NVLink does not contend with the NIC fabric — but
		// it is not free, which is what keeps the joint (t, p) search
		// honest: t > 1 splits compute at the price of 4 all-reduces per
		// layer per micro-batch. Zero when t = 1 (every paper cell).
		tpRing := tpRingSeconds(cfg, calib, assign, s)
		tf[s] = work/3/effFLOPS + 2*float64(part.Layers[s])*tpRing
		tb[s] = 2*work/3/effFLOPS + 2*float64(part.Layers[s])*tpRing
		if opt.OverlappedOptimizer {
			// Comm–compute interference: the NCCL kernels of overlapped
			// reduce-scatter occupy SMs and HBM bandwidth while the
			// backward pass runs, so hiding communication is not free. The
			// surcharge is proportional to the hidden communication time,
			// spread over the backward passes that hide it.
			hidden := (1 - exposedDPFraction(opt, calib, m)) * dpPerLayer[s] * float64(part.Layers[s])
			tb[s] += calib.InterferenceFactor * hidden / float64(m)
		}
	}

	// Groups sharing a node start staggered across one pipeline beat:
	// lockstep starts would make every pipeline's P2P transfer collide on
	// the node NIC each beat, a synchronization artifact real deployments
	// do not sustain (kernel jitter and NCCL chunking de-correlate them).
	beat := 0.0
	for s := 0; s < p; s++ {
		if b := tf[s] + tb[s]; b > beat {
			beat = b
		}
	}
	pipesPerNode := cfg.Topo.GPUsPerNode / t
	if pipesPerNode < 1 {
		pipesPerNode = 1
	}
	return &Iteration{
		cfg: cfg, opt: opt, calib: calib,
		deg: deg, assign: assign, world: world, m: m,
		eng: eng, fab: fab, part: part,
		tf: tf, tb: tb,
		actBytes:     cfg.Spec.ActivationMessageBytes() / float64(t),
		beat:         beat,
		pipesPerNode: pipesPerNode,
	}, nil
}

// stagger is the instant a pipeline group's first stage starts.
func (it *Iteration) stagger(pg *comm.Group) float64 {
	return it.beat * float64(pg.Index%it.pipesPerNode) / float64(it.pipesPerNode)
}

// dpBytes returns the gradient and parameter payloads each
// data-parallel group of a stage synchronizes per iteration.
func (it *Iteration) dpBytes(stage int) (grad, param float64) {
	params := float64(it.cfg.Spec.ParamsPerLayer()*int64(it.part.Layers[stage])) / float64(it.assign.T)
	return params * it.calib.GradBytesPerParam * it.opt.ExtraDPTraffic,
		params * it.calib.ParamBytesPerParam * it.opt.ExtraDPTraffic
}

// buckets is how many reduce-scatter buckets a group's gradients split
// into: one per micro-batch when the optimizer overlaps the backward
// pass, one after the flush otherwise.
func (it *Iteration) buckets() int {
	if it.opt.OverlappedOptimizer {
		return it.m
	}
	return 1
}

// World returns the communicators the iteration runs on, with their
// Assignment. They are shared and must be treated as read-only.
func (it *Iteration) World() *comm.World { return it.world }

// Run executes the prepared iteration on its event engine; an iteration
// runs once. A nil deadline simulates to completion and still counts the
// events fired.
// Otherwise the run stops with ErrAboveBound as soon as it provably
// cannot finish by the deadline's current value: when its abort
// projection exceeds it at an op completion, when its clock passes it at
// a collective completion, or when the clock passes the value the
// deadline held as the run started. An iteration finishing exactly at
// the deadline completes, so ties tie-break as usual.
func (it *Iteration) Run(dl *Deadline) (Report, Outcome, error) {
	cfg, eng, fab := it.cfg, it.eng, it.fab
	p := it.deg.P
	tf, tb := it.tf, it.tb
	// The abort projection reads the fabric before any scenario event can
	// change it.
	var proj *projection
	if dl != nil {
		proj = it.newProjection(dl)
	}

	// Bind the scenario before the pipelines so that, at equal instants,
	// scripted events apply ahead of training events — deterministically.
	// An empty scenario binds to an inert runtime and schedules nothing.
	rt, err := cfg.Scenario.Bind(eng, fab)
	if err != nil {
		return Report{}, Outcome{}, err
	}

	st := newIterState(it, dl)
	// When the iteration completes, stop the scenario: open-ended
	// background traffic and events scripted past the end must not keep
	// the engine (or the measurement) alive.
	st.onFinish = rt.Stop
	sched := pipeline.OneFOneB(p, it.m)
	if it.opt.GPipeSchedule {
		sched = pipeline.GPipe(p, it.m)
	}

	// Launch all t·d pipeline groups concurrently on the shared fabric,
	// each at its stagger.
	for g, pg := range it.world.PPGroups {
		pg := pg
		cfgExec := pipeline.ExecConfig{
			Ranks:           pg.Ranks,
			ForwardTime:     tf,
			BackwardTime:    tb,
			ActivationBytes: it.actBytes,
			Class:           pg.Class,
			OnBackwardDone: func(stage, micro int, now sim.Time) {
				st.backwardDone(pg.Ranks[stage], micro)
			},
			OnDone: func(now sim.Time) { st.pipelineDone(now) },
		}
		if proj != nil {
			// Branch-and-bound: the moment the projection proves the
			// iteration ends after the deadline, the candidate has lost
			// and the engine halts — long before the clock itself gets
			// there, which is what makes losing cells cheap. The relative
			// slack keeps a sum-form projection from out-rounding the
			// simulator's sequential additions: a candidate inside the
			// slack simulates on and stops at the clock checks instead, so
			// the search outcome is unchanged either way.
			chain := proj.chains[g*p : (g+1)*p]
			cfgExec.OnOpDone = func(s, remF, remB int, now sim.Time) {
				proj.opDone(chain, s, remF, remB, now)
			}
		}
		ex, err := pipeline.NewExecutor(eng, fab, sched, cfgExec)
		if err != nil {
			return Report{}, Outcome{}, err
		}
		eng.At(it.stagger(pg), ex.Start)
	}
	deadline := math.Inf(1)
	if dl != nil {
		deadline = dl.Load()
	}
	if math.IsInf(deadline, 1) {
		eng.Run()
	} else {
		// The event clock only moves forward, so a candidate whose clock
		// passes the deadline has strictly lost. An iteration finishing
		// exactly at the deadline still completes (RunUntil fires events
		// at the deadline), so ties simulate fully and tie-breaking stays
		// bit-identical.
		eng.RunUntil(deadline)
	}
	out := Outcome{Events: eng.Fired()}
	if proj != nil {
		out.peak = proj.peak
		if eng.Halted() || (!st.finished() && eng.Pending() > 0) {
			out.halted = true
			return Report{}, out, ErrAboveBound
		}
	}
	if !st.finished() {
		return Report{}, out, fmt.Errorf("trainer: iteration did not complete (deadlock in simulation)")
	}

	iter := st.endTime
	out.end = iter
	n := cfg.Topo.NumDevices()
	rep := Report{
		Framework:            cfg.Framework,
		Env:                  EnvLabel(cfg.Topo),
		Degrees:              it.deg,
		Partition:            it.part,
		Micro:                it.m,
		IterSeconds:          iter,
		TFLOPS:               cfg.Spec.FLOPsPerIteration() / (iter * float64(n)) / 1e12,
		Throughput:           float64(cfg.Spec.GlobalBatch) / iter,
		ReduceScatterSeconds: st.maxRSTime(),
		PipelineSeconds:      st.pipeEnd,
		Scenario:             cfg.Scenario.String(),
		ScenarioEvents:       rt.Applied(),
	}
	return rep, out, nil
}

// exposedDPFraction returns the share of a stage's data-parallel
// communication that stays on the critical path as seen by the partition
// planner: the parameter all-gather (never overlapped) plus roughly one
// gradient bucket. With the overlapped optimizer the rest hides behind
// the backward pass; without it, the reduce-scatter still largely hides
// behind the pipeline drain (late stages flush their backwards several
// beats before stage 0 finishes).
func exposedDPFraction(opt Options, calib Calibration, m int) float64 {
	rsShare := calib.GradBytesPerParam / (calib.GradBytesPerParam + calib.ParamBytesPerParam)
	agShare := 1 - rsShare
	return rsShare/float64(m) + agShare
}

// makePartition selects the stage division per the options: uniform, or
// self-adapting (Eq. 4–5) with memory caps from the device memory.
//
// The speed S(c_i) of a stage is its devices' effective per-layer
// throughput in this environment: pure compute, plus the exposed share of
// the stage's data-parallel synchronization on its selected NIC, plus the
// interference cost of whatever synchronization is hidden. Stages on slow
// fabrics are effectively slower, and Eq. 5 shifts layers towards the
// fast clusters.
func makePartition(cfg Config, opt Options, calib Calibration, assign *parallel.Assignment, m int, dpPerLayer []float64) (partition.Result, error) {
	p := assign.P
	if opt.ForcedPartition != nil {
		r := partition.Result{Layers: append([]int(nil), opt.ForcedPartition...), Strategy: "forced"}
		return r, r.Validate(cfg.Spec.Layers)
	}
	if !opt.SelfAdaptingPartition {
		return partition.Uniform(cfg.Spec.Layers, p)
	}
	effFLOPS := calib.PeakTFLOPS * 1e12 * calib.ComputeMFU
	computePerLayer := float64(m) * cfg.Spec.FLOPsForLayers(1, cfg.Spec.MicroBatch) / float64(assign.T) / effFLOPS
	exposed := exposedDPFraction(opt, calib, m)
	interf := 0.0
	if opt.OverlappedOptimizer {
		interf = calib.InterferenceFactor * (1 - exposed)
	}
	// Only part of a stage's exposed DP time lands on the iteration's
	// critical path — the groups' tails overlap each other and the
	// pipeline drain — so the planner damps the DP term rather than
	// charging it in full (charging it fully over-shifts layers towards
	// fast clusters, which the DES punishes through the pipeline beat).
	const dpCriticalShare = 0.5
	stages := make([]partition.Stage, p)
	for s := 0; s < p; s++ {
		// Per-layer tensor-parallel time across all micro-batches (4 ring
		// all-reduces per layer per micro-batch); zero at t = 1.
		tpPerLayer := 4 * float64(m) * tpRingSeconds(cfg, calib, assign, s)
		stages[s] = partition.Stage{
			Speed:     1 / (computePerLayer + tpPerLayer + dpCriticalShare*(exposed+interf)*dpPerLayer[s]),
			MaxLayers: maxLayersForMemory(cfg, assign, s),
		}
	}
	return partition.SelfAdapting(cfg.Spec.Layers, stages, opt.Alpha)
}

// newFabric builds the fabric an iteration runs on. It is a variable so
// the package tests can check the parameters Simulate hands down.
var newFabric = netsim.New

// tpRingSeconds returns the wall time of one tensor-parallel ring
// all-reduce of a micro-batch's activation tensor on the stage's
// intra-node interconnect; zero when t = 1.
func tpRingSeconds(cfg Config, calib Calibration, assign *parallel.Assignment, stage int) float64 {
	t := assign.T
	if t <= 1 {
		return 0
	}
	node := cfg.Topo.NodeOf(assign.StageRanks(stage)[0])
	bps := calib.Net.NVLinkBytesPerSec
	if node.Intra == topology.PCIe {
		bps = calib.Net.PCIeBytesPerSec
	}
	bytes := cfg.Spec.ActivationMessageBytes()
	return 2*float64(t-1)/float64(t)*bytes/bps + 2*float64(t-1)*calib.Net.IntraLatency
}

// stageDPPerLayer estimates, for every pipeline stage, the gradient
// reduce-scatter + parameter all-gather seconds one layer costs the
// stage's data-parallel groups on their selected fabric (the slowest ring
// edge governs a ring collective). It reads the uncontended pair
// bandwidths of fab, which must not yet carry any scenario change.
func stageDPPerLayer(cfg Config, calib Calibration, assign *parallel.Assignment, world *comm.World, fab *netsim.Fabric) []float64 {
	out := make([]float64, assign.P)
	for s := 0; s < assign.P; s++ {
		g := world.DPGroups[assign.DPRow(assign.StageRanks(s)[0])]
		d := len(g.Ranks)
		if d == 1 {
			continue
		}
		bytes := float64(cfg.Spec.ParamsPerLayer()) / float64(assign.T) *
			(calib.GradBytesPerParam + calib.ParamBytesPerParam)
		perEdge := float64(d-1) / float64(d) * bytes
		worst := 0.0
		for i := range g.Ranks {
			src, dst := g.Ranks[i], g.Ranks[(i+1)%d]
			if bw := fab.PairBandwidth(src, dst, g.Class); bw > 0 {
				if t := perEdge / bw; t > worst {
					worst = t
				}
			}
		}
		out[s] = worst
	}
	return out
}

// maxLayersForMemory finds the largest layer count whose stage memory fits
// the devices of the stage (Mem(N_ci) ≤ DMem(c_i), Eq. 5's constraint).
// Activation memory assumes full recomputation (only layer-boundary
// tensors stay resident), matching how Megatron fits multi-billion-
// parameter stages.
func maxLayersForMemory(cfg Config, assign *parallel.Assignment, stage int) int {
	node := cfg.Topo.NodeOf(assign.StageRanks(stage)[0])
	dmem := node.MemBytesPerGPU
	inflight := int64(assign.P - stage) // 1F1B peak residency
	for l := cfg.Spec.Layers; l >= 1; l-- {
		static := cfg.Spec.StageMemoryBytes(l, assign.D, assign.T, 0, true)
		act := cfg.Spec.ActivationBytesPerLayerRecompute() * int64(l) * inflight / int64(assign.T)
		if static+act <= dmem {
			return l
		}
	}
	return 1
}

// iterState tracks the data-parallel phase across the iteration.
type iterState struct {
	eng    *sim.Engine
	assign *parallel.Assignment
	opt    Options
	calib  Calibration

	// Per DP group row: gradient payload, bucket progress, timings.
	groups []*dpGroupState

	pipesLeft int
	pipeEnd   sim.Time
	endTime   sim.Time
	doneCount int
	// onFinish fires once, the moment the iteration completes (all
	// pipelines flushed and all DP groups stepped); the scenario runtime
	// hooks it to stop generating events.
	onFinish func()
	// dl is a bounded run's deadline (nil when unbounded).
	dl *Deadline
}

type dpGroupState struct {
	group       *comm.Group
	ring        *collective.Ring
	gradBytes   float64
	paramBytes  float64
	buckets     int
	microCount  []int // per micro: ranks that finished its backward
	nextBucket  int
	rsInFlight  bool
	readyBucket int // buckets whose gradients are complete
	rsStart     sim.Time
	rsEnd       sim.Time
	rsStarted   bool
	done        bool

	// Bound once in newIterState: a gradient bucket's reduce-scatter
	// completes, the optimizer step ends, the parameter all-gather
	// completes.
	rsDone, stepped, agDone func()
}

func newIterState(it *Iteration, dl *Deadline) *iterState {
	st := &iterState{
		eng: it.eng, assign: it.assign,
		opt: it.opt, calib: it.calib,
		pipesLeft: len(it.world.PPGroups),
		dl:        dl,
	}
	buckets := it.buckets()
	for _, g := range it.world.DPGroups {
		grad, param := it.dpBytes(it.assign.StageOf(g.Ranks[0]))
		gs := &dpGroupState{
			group:      g,
			ring:       collective.NewRing(it.eng, it.fab, g.Ranks, g.Class),
			gradBytes:  grad,
			paramBytes: param,
			buckets:    buckets,
			microCount: make([]int, it.m),
		}
		gs.rsDone = func() { st.bucketDone(gs) }
		gs.stepped = func() { gs.ring.AllGather(gs.paramBytes, gs.agDone) }
		gs.agDone = func() {
			st.checkClock()
			gs.done = true
			st.groupDone()
		}
		st.groups = append(st.groups, gs)
	}
	return st
}

// backwardDone records a rank's backward completion for micro-batch i and
// releases gradient buckets when every rank of the group has produced
// them. Without the overlapped optimizer, gradient synchronization waits
// for the whole pipeline flush (Megatron's optimizer.step() runs after the
// flush, gated by the tied-embedding all-reduce across stages).
func (st *iterState) backwardDone(rank, micro int) {
	gs := st.groups[st.assign.DPRow(rank)]
	gs.microCount[micro]++
	if gs.microCount[micro] != len(gs.group.Ranks) {
		return
	}
	if st.opt.OverlappedOptimizer {
		gs.readyBucket++
		st.pumpRS(gs)
	}
}

// pumpRS starts the next gradient reduce-scatter bucket if one is ready
// and none is in flight (buckets serialize within a group, as NCCL
// serializes collectives on one communicator).
func (st *iterState) pumpRS(gs *dpGroupState) {
	if gs.rsInFlight || gs.nextBucket >= gs.readyBucket || gs.nextBucket >= gs.buckets {
		return
	}
	if !gs.rsStarted {
		gs.rsStarted = true
		gs.rsStart = st.eng.Now()
	}
	gs.rsInFlight = true
	gs.ring.ReduceScatter(gs.gradBytes/float64(gs.buckets), gs.rsDone)
}

// bucketDone completes one gradient bucket's reduce-scatter. The next
// ready bucket starts; after the last, the optimizer steps on the sharded
// state, then the group all-gathers the updated fp16 parameters.
func (st *iterState) bucketDone(gs *dpGroupState) {
	st.checkClock()
	gs.rsInFlight = false
	gs.nextBucket++
	if gs.nextBucket == gs.buckets {
		gs.rsEnd = st.eng.Now()
		st.eng.After(st.calib.OptimizerSeconds, gs.stepped)
		return
	}
	st.pumpRS(gs)
}

// checkClock halts a bounded run whose clock has passed its deadline's
// current value. The projection looks only at op completions, so a
// deadline that fell while the run sat in a data-parallel tail is caught
// at the next collective completion.
func (st *iterState) checkClock() {
	if st.dl != nil && st.eng.Now() > st.dl.Load() {
		st.eng.Halt()
	}
}

func (st *iterState) pipelineDone(now sim.Time) {
	st.pipesLeft--
	if now > st.pipeEnd {
		st.pipeEnd = now
	}
	if st.pipesLeft == 0 && !st.opt.OverlappedOptimizer {
		// Post-flush gradient synchronization: every group reduces now.
		for _, gs := range st.groups {
			gs.readyBucket = gs.buckets
			st.pumpRS(gs)
		}
	}
	st.maybeFinish()
}

func (st *iterState) groupDone() {
	st.doneCount++
	if st.doneCount == len(st.groups) && st.eng.Now() > st.endTime {
		st.endTime = st.eng.Now()
	}
	st.maybeFinish()
}

func (st *iterState) maybeFinish() {
	if st.finished() && st.onFinish != nil {
		fn := st.onFinish
		st.onFinish = nil
		fn()
	}
}

func (st *iterState) finished() bool {
	return st.doneCount == len(st.groups) && st.pipesLeft == 0
}

func (st *iterState) maxRSTime() float64 {
	worst := 0.0
	for _, gs := range st.groups {
		if d := gs.rsEnd - gs.rsStart; gs.rsStarted && d > worst {
			worst = d
		}
	}
	return worst
}
