// Package core is the Holmes scheduler: the paper's primary contribution.
// Given a hardware topology (clusters, nodes, NICs) and a model, it
// produces a training plan that
//
//   - places pipeline-parallel groups across clusters so that every
//     data-parallel group stays NIC-homogeneous (Cross-Cluster Pipeline
//     Parallelism, §3.1);
//   - selects a NIC per communication group (Automatic NIC Selection,
//     §3.2);
//   - divides model layers over stages by effective stage speed
//     (Self-Adapting Pipeline Partition, §3.3, Eq. 4–5);
//   - and can search the tensor and pipeline degrees jointly by
//     simulating candidates.
//
// The planner holds no package-level mutable state: communicator caching
// and the bounded search pool live on an engine.Engine, so concurrent
// planners (and concurrent tenants of one planner) never interfere.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"holmes/internal/comm"
	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/parallel"
	"holmes/internal/partition"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// Planner builds and evaluates Holmes training plans.
type Planner struct {
	Topo *topology.Topology
	Spec model.Spec
	// Framework profile; defaults to Holmes.
	Framework trainer.Framework
	// Opt overrides the framework profile (nil = profile defaults).
	Opt *trainer.Options
	// Engine supplies the communicator cache and the search worker pool;
	// its FullRecompute knob selects the exhaustive search oracle. Nil
	// falls back to the shared default engine.
	Engine *engine.Engine
}

// Plan is one concrete scheduling decision.
type Plan struct {
	Degrees   parallel.Degrees
	Assign    *parallel.Assignment
	World     *comm.World
	Partition partition.Result
	// Report holds the simulated performance of the plan.
	Report trainer.Report
}

// NewPlanner validates inputs and returns a planner on the shared default
// engine.
func NewPlanner(topo *topology.Topology, spec model.Spec) (*Planner, error) {
	return NewPlannerOn(nil, topo, spec)
}

// NewPlannerOn validates inputs and returns a planner bound to the given
// engine (nil = the shared default engine).
func NewPlannerOn(eng *engine.Engine, topo *topology.Topology, spec model.Spec) (*Planner, error) {
	if topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Planner{Topo: topo, Spec: spec, Framework: trainer.Holmes, Engine: eng}, nil
}

// engine returns the planner's engine, defaulting to the shared one.
func (pl *Planner) engine() *engine.Engine {
	if pl.Engine != nil {
		return pl.Engine
	}
	return engine.Default()
}

// Plan builds the plan for fixed tensor and pipeline degrees, simulating
// one iteration to fill in the performance report. The communicators come
// from (or land in) the engine's LRU cache.
func (pl *Planner) Plan(t, p int) (*Plan, error) {
	plan, _, err := pl.plan(t, p, nil)
	return plan, err
}

// plan is Plan against a branch-and-bound deadline (nil = none): the
// simulation stops (trainer.ErrAboveBound) as soon as it proves the
// candidate slower than the deadline. The outcome counts the events the
// simulation fired and says whether the candidate lost.
func (pl *Planner) plan(t, p int, dl *trainer.Deadline) (*Plan, trainer.Outcome, error) {
	it, err := pl.prepare(t, p)
	if err != nil {
		return nil, trainer.Outcome{}, err
	}
	return runPlan(it, dl)
}

// prepare sets up the iteration of the degrees on the planner's engine.
func (pl *Planner) prepare(t, p int) (*trainer.Iteration, error) {
	return trainer.Prepare(trainer.Config{
		Topo: pl.Topo, Spec: pl.Spec,
		TensorSize: t, PipelineSize: p,
		Framework: pl.Framework, Opt: pl.Opt,
		Engine: pl.engine(),
	})
}

// runPlan runs a prepared iteration against dl (nil = none) and makes
// its Plan.
func runPlan(it *trainer.Iteration, dl *trainer.Deadline) (*Plan, trainer.Outcome, error) {
	rep, out, err := it.Run(dl)
	if err != nil {
		return nil, out, err
	}
	w := it.World()
	return &Plan{
		Degrees:   rep.Degrees,
		Assign:    w.Assign,
		World:     w,
		Partition: rep.Partition,
		Report:    rep,
	}, out, nil
}

// feasibleTensorDegrees lists every tensor degree the topology admits:
// divisors of the per-node GPU count (tensor groups must stay inside a
// node, §2.4), ascending.
func (pl *Planner) feasibleTensorDegrees() []int {
	g := pl.Topo.GPUsPerNode
	var ts []int
	for t := 1; t <= g; t++ {
		if g%t == 0 {
			ts = append(ts, t)
		}
	}
	return ts
}

// searchSpace applies the shared feasibility pruning once for a set of
// tensor degrees: for every (t, p) with p up to the node count, the
// degrees must tile the device count, the model must have at least p
// layers, and the global batch must micro-batch evenly at the implied
// data-parallel degree. Candidates come back in deterministic input
// order: t ascending, then p ascending.
func (pl *Planner) searchSpace(ts []int) []parallel.Degrees {
	n := pl.Topo.NumDevices()
	nodes := pl.Topo.NumNodes()
	g := pl.Topo.GPUsPerNode
	var cells []parallel.Degrees
	for _, t := range ts {
		if t < 1 || t > g || g%t != 0 {
			continue
		}
		for p := 1; p <= nodes; p++ {
			if n%(t*p) != 0 || pl.Spec.Layers < p {
				continue
			}
			if _, err := pl.Spec.MicroBatches(n / (t * p)); err != nil {
				continue
			}
			cells = append(cells, parallel.Degrees{T: t, P: p, D: n / (t * p)})
		}
	}
	return cells
}

// SearchSpace returns the full joint (t, p) candidate set SearchPlan will
// explore, in its deterministic evaluation order. Exposed so callers (the
// serve API, tests) can report or bound the search without running it.
func (pl *Planner) SearchSpace() []parallel.Degrees {
	return pl.searchSpace(pl.feasibleTensorDegrees())
}

// cell is one candidate of a pruned search: its throughput upper bound,
// its prepared iteration (held only while the cell can still run), and
// what running it gave.
type cell struct {
	ub   float64
	it   *trainer.Iteration
	plan *Plan
	out  trainer.Outcome
	err  error
}

// searchBest selects the winner over the candidate cells — highest
// simulated throughput, ties broken by input order. The default path
// prepares each cell's iteration once, orders the cells by the
// admissible throughput upper bound its trainer.Iteration.LowerBound
// implies (the iteration evaluated but not run), simulates in bound
// order on the engine pool, and skips any cell whose bound cannot beat
// the incumbent; the winner of a successful search is memoized on the
// engine's plan cache so identical searches replay with one simulation.
// The exhaustive scan stays behind the engine's FullRecompute knob as
// the bit-identical oracle: winner, Report, and error semantics are
// identical because the bound is admissible (a pruned cell's true
// throughput can never exceed its bound, hence never beat the final
// incumbent), pruning only begins once an incumbent exists (the
// all-fail case still simulates every cell, so the first-by-input-order
// error is preserved), and the incumbent fold — better throughput, or
// equal throughput at a smaller input index — is order-independent.
func (pl *Planner) searchBest(degs []parallel.Degrees, space string) (*Plan, error) {
	eng := pl.engine()
	if eng.FullRecompute() {
		return pl.searchExhaustive(degs)
	}
	memoKey := pl.searchMemoKey(space)
	if v, ok := eng.Plan(memoKey); ok {
		if win, ok := v.(searchMemoVal); ok {
			if plan, out, err := pl.plan(win.T, win.P, nil); err == nil {
				eng.NoteSearch(engine.SearchStats{Simulated: 1, Pruned: uint64(len(degs) - 1), Events: out.Events, MemoHits: 1})
				return plan, nil
			}
			// A memo entry that no longer replays (a snapshot from an
			// incompatible build) is ignored; the full search below
			// overwrites it.
		}
	}

	// Prepare every cell once and bound it; a cell that is not pruned
	// runs the iteration its bound evaluated. A cell whose prepare fails
	// gets an infinite bound, so it takes a wave slot unconditionally and
	// its error surfaces exactly as the oracle's.
	cells := make([]cell, len(degs))
	for i, d := range degs {
		c := &cells[i]
		c.ub = math.Inf(1)
		if c.it, c.err = pl.prepare(d.T, d.P); c.err == nil {
			c.ub = c.it.ThroughputUpperBound()
		}
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cells[order[a]].ub > cells[order[b]].ub })

	var st engine.SearchStats
	bestThr, bestIdx := math.Inf(-1), -1
	bestIter := 0.0
	// beats reports whether simulating cell i could still change the
	// winner: its bound must beat the incumbent's throughput, or tie it
	// from a smaller input index (the incumbent's throughput only rises
	// and its index at equal throughput only falls, so a cell pruned now
	// stays prunable).
	beats := func(i int) bool {
		ub := cells[i].ub
		return bestIdx < 0 || ub > bestThr || (ub == bestThr && i < bestIdx)
	}
	width := eng.Concurrency()
	if width < 1 {
		width = 1
	}
	wave := make([]int, 0, width)
	lost := make([]bool, 0, width)
	for next := 0; next < len(order); {
		wave = wave[:0]
		for next < len(order) && len(wave) < width {
			i := order[next]
			next++
			if beats(i) {
				wave = append(wave, i)
			} else {
				st.Pruned++
				cells[i].it = nil
			}
		}
		if len(wave) == 0 {
			continue
		}
		// Branch-and-bound on the event clock. The wave's cells share one
		// deadline: the incumbent's iteration time, lowered to each
		// wave-mate's the moment it completes, so a losing cell stops as
		// soon as any known result proves it lost. No incumbent and no
		// completed wave-mate (in particular an all-fail search) means no
		// deadline, so error semantics stay the oracle's.
		deadline := math.Inf(1)
		if bestIdx >= 0 {
			deadline = bestIter
		}
		live := trainer.NewDeadline(deadline)
		eng.Go(len(wave), func(k int) {
			c := &cells[wave[k]]
			if c.err != nil {
				return // its prepare failed
			}
			c.plan, c.out, c.err = runPlan(c.it, live)
			c.it = nil
			if c.err == nil {
				live.Lower(c.plan.Report.IterSeconds)
			}
		})
		// Classify each cell against D = the smaller of the wave's
		// deadline and its wave-mates' completed times: it lost if it
		// stopped, its projection ever exceeded D, or it completed after
		// D. An admissible projection never stops the wave's fastest
		// cell, so which wave-mates complete depends on the threads'
		// timing only among the losers, and the counters and the winner
		// are deterministic at a fixed width. A cell aborted against D
		// stays lost against every later incumbent (the incumbent's
		// iteration time only falls), and the fastest cell of a wave is
		// never aborted, so the winner is the oracle's.
		lost = lost[:0]
		for _, i := range wave {
			d := deadline
			for _, j := range wave {
				if j != i && cells[j].err == nil {
					d = math.Min(d, cells[j].plan.Report.IterSeconds)
				}
			}
			lost = append(lost, cells[i].out.LostTo(d))
		}
		for k, i := range wave {
			c := &cells[i]
			st.Events += c.out.Events
			if lost[k] {
				st.Aborted++
				c.plan, c.err = nil, nil
				continue
			}
			st.Simulated++
			if c.err != nil {
				continue
			}
			thr := c.plan.Report.Throughput
			if bestIdx < 0 || thr > bestThr || (thr == bestThr && i < bestIdx) {
				bestThr, bestIdx = thr, i
				bestIter = c.plan.Report.IterSeconds
			}
		}
	}
	eng.NoteSearch(st)

	if bestIdx < 0 {
		// No incumbent ever formed, so nothing was pruned or aborted:
		// every cell simulated and failed. Report the first error by
		// input order, exactly as the oracle does.
		for _, c := range cells {
			if c.err != nil {
				return nil, c.err
			}
		}
		return nil, fmt.Errorf("core: no feasible plan for %d devices", pl.Topo.NumDevices())
	}
	eng.StorePlan(memoKey, searchMemoVal{T: degs[bestIdx].T, P: degs[bestIdx].P})
	return cells[bestIdx].plan, nil
}

// searchExhaustive simulates every candidate concurrently on the
// engine's bounded worker pool and selects the winner by scanning
// results in input order (strict throughput improvement to move), so the
// outcome is identical to a sequential search no matter how the pool
// schedules. The error reported when nothing succeeds is the first by
// input order. This is the reference arm the pruned search is
// differential-tested against.
func (pl *Planner) searchExhaustive(cells []parallel.Degrees) (*Plan, error) {
	plans := make([]*Plan, len(cells))
	errs := make([]error, len(cells))
	events := make([]uint64, len(cells))
	eng := pl.engine()
	eng.Go(len(cells), func(i int) {
		var out trainer.Outcome
		plans[i], out, errs[i] = pl.plan(cells[i].T, cells[i].P, nil)
		events[i] = out.Events
	})
	st := engine.SearchStats{Simulated: uint64(len(cells))}
	for _, n := range events {
		st.Events += n
	}
	eng.NoteSearch(st)
	var best *Plan
	var firstErr error
	for i := range cells {
		if errs[i] != nil {
			if firstErr == nil {
				firstErr = errs[i]
			}
			continue
		}
		if best == nil || plans[i].Report.Throughput > best.Report.Throughput {
			best = plans[i]
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("core: no feasible plan for %d devices", pl.Topo.NumDevices())
	}
	return best, nil
}

// SearchPipeline tries every feasible pipeline degree at the given tensor
// degree and returns the plan with the highest simulated throughput —
// the historical single-axis search, now a restriction of SearchPlan's
// joint space to one tensor degree.
func (pl *Planner) SearchPipeline(t int) (*Plan, error) {
	cells := pl.searchSpace([]int{t})
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: no feasible pipeline degree for %d devices", pl.Topo.NumDevices())
	}
	return pl.searchBest(cells, fmt.Sprintf("t=%d", t))
}

// SearchPlan searches tensor and pipeline degrees jointly: every feasible
// (t, p) cell — t over the divisors of the per-node GPU count, p over the
// node count — shares one feasibility pruning pass, reuses communicator
// worlds through the engine cache, and simulates concurrently on the
// engine pool. The winner is selected in deterministic input order
// (t ascending, then p ascending; strict throughput improvement to move),
// so concurrent and sequential searches return the same plan.
func (pl *Planner) SearchPlan() (*Plan, error) {
	cells := pl.SearchSpace()
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: no feasible (t, p) for %d devices", pl.Topo.NumDevices())
	}
	return pl.searchBest(cells, "joint")
}

// CommunicationCost estimates the per-iteration communication volume each
// group kind moves, in bytes — the objective of §2.3 ("minimize the
// communication costs"). It errors when the plan's data-parallel degree
// cannot micro-batch the global batch: silently assuming m=1 (the old
// behaviour) skewed the DP/PP estimates by the full micro-batch count.
func (pl *Planner) CommunicationCost(plan *Plan) (map[comm.Kind]float64, error) {
	spec := pl.Spec
	d := plan.Degrees.D
	m, err := spec.MicroBatches(d)
	if err != nil {
		return nil, fmt.Errorf("core: communication cost undefined: %w", err)
	}
	out := make(map[comm.Kind]float64)
	// DP: ring all-reduce-equivalent traffic of the gradients per group.
	calib := trainer.DefaultCalibration()
	for _, g := range plan.World.DPGroups {
		stage := plan.Assign.StageOf(g.Ranks[0])
		params := float64(spec.ParamsPerLayer()*int64(plan.Partition.Layers[stage])) / float64(plan.Degrees.T)
		out[comm.DP] += params * (calib.GradBytesPerParam + calib.ParamBytesPerParam) *
			2 * float64(d-1) / float64(d)
	}
	// PP: activations and gradients per micro-batch per hop.
	hopBytes := spec.ActivationMessageBytes() / float64(plan.Degrees.T)
	out[comm.PP] = hopBytes * 2 * float64(plan.Degrees.P-1) * float64(m) * float64(len(plan.World.PPGroups))
	// TP: broadcast/gather of activations per layer (zero when t = 1).
	if plan.Degrees.T > 1 {
		out[comm.TP] = spec.ActivationMessageBytes() * float64(m) * float64(spec.Layers) *
			2 * float64(plan.Degrees.T-1) / float64(plan.Degrees.T) * float64(len(plan.World.TPGroups))
	}
	return out, nil
}

// Describe renders the plan for operators: topology, degrees, per-group
// NIC selections, partition, and predicted performance.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Holmes plan: t=%d p=%d d=%d\n", p.Degrees.T, p.Degrees.P, p.Degrees.D)
	fmt.Fprintf(&b, "partition: %s\n", p.Partition)
	nicCount := map[string]int{}
	for _, g := range p.World.DPGroups {
		nicCount[g.NIC.String()]++
	}
	fmt.Fprintf(&b, "data-parallel groups by NIC: %v\n", nicCount)
	cross := 0
	for _, g := range p.World.PPGroups {
		if g.NIC == topology.Ethernet && g.CrossNode {
			cross++
		}
	}
	fmt.Fprintf(&b, "pipeline groups on Ethernet: %d/%d\n", cross, len(p.World.PPGroups))
	fmt.Fprintf(&b, "predicted: %.1f TFLOPS/GPU, %.2f samples/s (iteration %.2fs)\n",
		p.Report.TFLOPS, p.Report.Throughput, p.Report.IterSeconds)
	return b.String()
}
