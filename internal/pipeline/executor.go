package pipeline

import (
	"fmt"

	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// ExecConfig parameterizes one pipeline group's execution on the fabric.
type ExecConfig struct {
	// Ranks lists the group's devices, one per stage, in stage order (a row
	// of the [PP] matrix).
	Ranks []int
	// ForwardTime and BackwardTime give per-stage compute seconds per
	// micro-batch (unequal under the self-adapting partition).
	ForwardTime, BackwardTime []float64
	// ActivationBytes is the payload of each inter-stage transfer (both
	// the forward activation and the backward gradient, which are the same
	// size for transformer pipelines).
	ActivationBytes float64
	// Class is the network class for inter-stage hops (Ether for
	// cross-cluster pipelines under Automatic NIC Selection).
	Class netsim.Class
	// OnBackwardDone, if set, fires when a stage finishes a micro-batch's
	// backward pass — the hook the overlapped distributed optimizer uses to
	// start gradient reduce-scatter buckets during the pipeline.
	OnBackwardDone func(stage, micro int, now sim.Time)
	// OnOpDone, if set, fires after every op completes with the stage's
	// remaining forward and backward op counts. A stage runs its ops
	// serially, so the counts bound the stage's remaining busy time from
	// below — the hook branch-and-bound callers use to prove an iteration
	// cannot finish in time and halt the engine early.
	OnOpDone func(stage, remForward, remBackward int, now sim.Time)
	// OnDone fires when the whole schedule (all stages) completes.
	OnDone func(now sim.Time)
}

// Executor replays a Schedule on the DES fabric.
type Executor struct {
	eng   *sim.Engine
	fab   *netsim.Fabric
	sched *Schedule
	cfg   ExecConfig

	pos      []int    // index of the first unexecuted op per stage
	executed [][]bool // per stage, per op index: already run out of order
	busy     []bool   // stage compute engine in use
	running  []Op     // the op a busy stage is computing
	opDone   []func() // per stage, completes running[s]; bound once
	remF     []int    // forwards not yet completed, per stage
	remB     []int    // backwards not yet completed, per stage
	fReady   [][]bool // activation for F_{s,i} arrived
	bReady   [][]bool // gradient for B_{s,i} arrived
	fDone    [][]bool
	done     int
	total    int
	finished bool

	// In-flight inter-stage transfers by slot, each slot with its arrival
	// callback bound once, and the slots free for reuse.
	hops     []hop
	freeHops []int32
}

// hop is one activation (fwd) or gradient transfer bound for stage to.
type hop struct {
	to, micro int
	fwd       bool
	arrive    func()
}

// NewExecutor validates the configuration against the schedule and
// prepares an executor. Call Start to begin at the engine's current time.
func NewExecutor(eng *sim.Engine, fab *netsim.Fabric, sched *Schedule, cfg ExecConfig) (*Executor, error) {
	p := sched.Stages
	if len(cfg.Ranks) != p {
		return nil, fmt.Errorf("pipeline: %d ranks for %d stages", len(cfg.Ranks), p)
	}
	if len(cfg.ForwardTime) != p || len(cfg.BackwardTime) != p {
		return nil, fmt.Errorf("pipeline: compute-time vectors must have %d entries", p)
	}
	for s := 0; s < p; s++ {
		if cfg.ForwardTime[s] < 0 || cfg.BackwardTime[s] < 0 {
			return nil, fmt.Errorf("pipeline: negative compute time at stage %d", s)
		}
	}
	if cfg.ActivationBytes < 0 {
		return nil, fmt.Errorf("pipeline: negative activation size")
	}
	e := &Executor{
		eng: eng, fab: fab, sched: sched, cfg: cfg,
		pos:      make([]int, p),
		executed: make([][]bool, p),
		busy:     make([]bool, p),
		running:  make([]Op, p),
		opDone:   make([]func(), p),
		remF:     make([]int, p),
		remB:     make([]int, p),
		total:    p * 2 * sched.Micro,
	}
	for s := 0; s < p; s++ {
		e.remF[s] = sched.Micro
		e.remB[s] = sched.Micro
		// A stage computes one op at a time, so one callback per stage
		// completes whichever op it is running.
		e.opDone[s] = func() { e.complete(s, e.running[s]) }
	}
	e.fReady = make([][]bool, p)
	e.bReady = make([][]bool, p)
	e.fDone = make([][]bool, p)
	// Every per-stage flag row is carved from one backing array.
	nOps := 0
	for s := 0; s < p; s++ {
		nOps += len(sched.Ops[s])
	}
	flags := make([]bool, nOps+3*p*sched.Micro)
	row := func(n int) []bool {
		r := flags[:n:n]
		flags = flags[n:]
		return r
	}
	for s := 0; s < p; s++ {
		e.executed[s] = row(len(sched.Ops[s]))
		e.fReady[s] = row(sched.Micro)
		e.bReady[s] = row(sched.Micro)
		e.fDone[s] = row(sched.Micro)
		if s == 0 {
			for i := range e.fReady[s] {
				e.fReady[s][i] = true // stage 0 reads micro-batches locally
			}
		}
	}
	return e, nil
}

// Start schedules the first ops. The executor then drives itself through
// the engine until every stage drains, firing OnDone once.
func (e *Executor) Start() {
	for s := 0; s < e.sched.Stages; s++ {
		e.tryAdvance(s)
	}
}

// ready reports whether an op's input dependency has arrived.
func (e *Executor) ready(s int, op Op) bool {
	switch op.Kind {
	case Forward:
		return e.fReady[s][op.Micro]
	default: // Backward
		if s == e.sched.Stages-1 {
			return e.fDone[s][op.Micro]
		}
		return e.bReady[s][op.Micro]
	}
}

// tryAdvance launches the stage's next runnable op if the stage is idle.
//
// The schedule order is authoritative, with one relaxation real 1F1B
// implementations exploit when transfers are in flight: if the scheduled
// op is a forward whose activation has not arrived yet, a *later backward*
// whose gradient is already here may run first. Running a backward early
// only releases activation memory, so the 1F1B residency bound still
// holds; forwards are never promoted past pending backwards (that would
// grow memory toward GPipe's footprint).
func (e *Executor) tryAdvance(s int) {
	if e.busy[s] {
		return
	}
	ops := e.sched.Ops[s]
	for idx := e.pos[s]; idx < len(ops); idx++ {
		if e.executed[s][idx] {
			if idx == e.pos[s] {
				e.pos[s]++
			}
			continue
		}
		op := ops[idx]
		if e.ready(s, op) {
			e.launch(s, idx, op)
			return
		}
		if op.Kind == Backward {
			// A blocked backward fences the stage: promoting a later
			// forward would exceed the 1F1B memory bound.
			return
		}
		// Blocked forward: keep scanning for a ready backward.
	}
}

func (e *Executor) launch(s, idx int, op Op) {
	e.executed[s][idx] = true
	if idx == e.pos[s] {
		e.pos[s]++
	}
	e.busy[s] = true
	e.running[s] = op
	dur := e.cfg.ForwardTime[s]
	if op.Kind == Backward {
		dur = e.cfg.BackwardTime[s]
	}
	e.eng.After(dur, e.opDone[s])
}

func (e *Executor) complete(s int, op Op) {
	e.busy[s] = false
	p := e.sched.Stages
	if op.Kind == Forward {
		e.remF[s]--
	} else {
		e.remB[s]--
	}
	switch op.Kind {
	case Forward:
		e.fDone[s][op.Micro] = true
		if s+1 < p {
			e.sendTo(s, s+1, op.Micro, true)
		}
	case Backward:
		if e.cfg.OnBackwardDone != nil {
			e.cfg.OnBackwardDone(s, op.Micro, e.eng.Now())
		}
		if s > 0 {
			e.sendTo(s, s-1, op.Micro, false)
		}
	}
	e.done++
	if e.done == e.total && !e.finished {
		e.finished = true
		if e.cfg.OnDone != nil {
			e.cfg.OnDone(e.eng.Now())
		}
	}
	if e.cfg.OnOpDone != nil {
		e.cfg.OnOpDone(s, e.remF[s], e.remB[s], e.eng.Now())
	}
	e.tryAdvance(s)
}

// sendTo ships micro-batch micro's activation (fwd) or gradient from
// stage from to stage to, on a hop slot taken from the free list.
func (e *Executor) sendTo(from, to, micro int, fwd bool) {
	var slot int32
	if n := len(e.freeHops); n > 0 {
		slot = e.freeHops[n-1]
		e.freeHops = e.freeHops[:n-1]
	} else {
		// The callback captures s, never reassigned, so it binds the
		// slot by value and sendTo allocates only when the slab grows.
		s := int32(len(e.hops))
		e.hops = append(e.hops, hop{arrive: func() { e.arrived(s) }})
		slot = s
	}
	h := &e.hops[slot]
	h.to, h.micro, h.fwd = to, micro, fwd
	src, dst := e.cfg.Ranks[from], e.cfg.Ranks[to]
	e.fab.StartFlow(src, dst, e.cfg.ActivationBytes, e.cfg.Class, h.arrive)
}

// arrived lands the transfer in slot at its stage, frees the slot, and
// lets the stage advance.
func (e *Executor) arrived(slot int32) {
	h := e.hops[slot]
	e.freeHops = append(e.freeHops, slot)
	if h.fwd {
		e.fReady[h.to][h.micro] = true
	} else {
		e.bReady[h.to][h.micro] = true
	}
	e.tryAdvance(h.to)
}
