package trainer

import (
	"math"
	"sync/atomic"

	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Deadline is the iteration time a branch-and-bound run must beat. The
// runs of one search wave share it: it starts at the wave's incumbent
// (+Inf when there is none) and falls to each wave-mate's iteration time
// as that wave-mate completes, so a run stops as soon as any known result
// proves it lost. Safe for concurrent use.
type Deadline struct{ bits atomic.Uint64 }

// NewDeadline returns a deadline at t seconds; math.Inf(1) means none yet.
func NewDeadline(t float64) *Deadline {
	d := new(Deadline)
	d.bits.Store(math.Float64bits(t))
	return d
}

// Load returns the deadline's current value.
func (d *Deadline) Load() float64 { return math.Float64frombits(d.bits.Load()) }

// Lower moves the deadline to t if t is earlier.
func (d *Deadline) Lower(t float64) {
	for {
		old := d.bits.Load()
		if t >= math.Float64frombits(old) || d.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// Outcome is how a simulation ran, besides its Report.
type Outcome struct {
	// Events counts the events the run's engine fired, Flows the flows
	// its fabric started, and Rebalances the fabric's rebalance passes
	// over a region that held a flow. A run that folds lockstep twins
	// (Iteration.twins) fires one twin's events for its whole class, while
	// Flows counts every flow it models, so Flows and Rebalances read as
	// the unfolded run's and only Events falls.
	Events, Flows, Rebalances uint64

	halted bool    // stopped once it provably lost to its deadline
	peak   float64 // largest projected iteration end at an op completion
	end    float64 // the iteration time, when the run completed
}

// LostTo reports whether the run provably lost to an incumbent finishing
// at d seconds: it stopped early, its projection exceeded d beyond the
// bound's slack at some op completion, or it completed after d. A run
// stops early only when its projection or its clock passed the deadline
// it saw, so for any d at or below that deadline the answer depends on
// the run's own trajectory alone, never on when its wave-mates finished.
func (o Outcome) LostTo(d float64) bool {
	return o.halted || o.peak > d*(1+boundSlack) || o.end > d
}

// projection is a bounded run's abort projection: at every op completion
// of stage s, with remF forwards and remB backwards left and the clock at
// now, the iteration provably ends no earlier than now plus the largest
// of
//
//   - drain + chain[s], where drain = remF·tf_s + remB·tb_s is the
//     stage's remaining serial compute, which ends with its last backward
//     B(m−1), and chain is the pipeline's table (see newProjection): the
//     backward chain from s towards stage 0 — B(m−1) crosses every hop
//     and backward below s in turn — with the tail of a data-parallel
//     group that can reduce its last bucket only after the chain reaches
//     its stage;
//   - the link volume: for every link, the bytes the bound charges it
//     that it has yet to admit, over its capacity — every one of them
//     still crosses the link, which delivers at most its capacity, before
//     the iteration ends.
//
// The chain and volume terms read the pristine fabric, so they are armed
// only on scenario-free runs, as every search is (scenario jitter can
// undercut a pristine hop, and a restored link can outrun a degraded
// capacity). A scenario run keeps the stage's own remaining work and its
// own group's tail.
type projection struct {
	eng        *sim.Engine
	dl         *Deadline
	tf, tb     []float64
	pristine   bool
	overlapped bool
	peak       float64

	// chains holds every simulated pipeline's table, pipeline-major (see
	// newProjection).
	chains []float64

	// Links with traffic still to admit. top is the one with the most
	// time left, topLeft that time, and topAdmitted its admitted bytes
	// when last read.
	links       []charged
	top         *netsim.Link
	topLeft     float64
	topAdmitted float64
}

// charged is a link and the bytes the bound charges it.
type charged struct {
	link  *netsim.Link
	bytes float64
}

// newProjection prepares a bounded run's projection. Every simulated
// pipeline's chain table is carved from one allocation, the c-th
// simulated pipeline's at chains[c·p : (c+1)·p] (a twin's table is its
// representative's):
//
//   - scenario-free, overlapped optimizer: chain[s] is the largest, over
//     stages j ≤ s, of Σ_{j≤k<s}(hop_k + tb_k) plus the tail of stage j's
//     group, whose last bucket waits for B(m−1) at j;
//   - scenario-free, otherwise: Σ_{k<s}(hop_k + tb_k) to the flush plus
//     the largest tail of any group, since every group reduces after it;
//   - with a scenario: the tail of stage s's own group.
func (it *Iteration) newProjection(dl *Deadline) *projection {
	p := it.deg.P
	b := it.bound()
	simulated, _ := it.simulated()
	pr := &projection{
		eng: it.eng, dl: dl, tf: it.tf, tb: it.tb,
		pristine:   it.cfg.Scenario.Empty(),
		overlapped: it.opt.OverlappedOptimizer,
		chains:     make([]float64, simulated*p),
	}
	maxTail := 0.0
	for _, t := range b.tails {
		maxTail = math.Max(maxTail, t)
	}
	next := 0
	for g, pg := range it.world.PPGroups {
		if it.twins(g%it.deg.T) == 0 {
			continue
		}
		c := pr.chains[next*p : (next+1)*p]
		next++
		hops := b.hops[g*p : (g+1)*p]
		tail := func(s int) float64 { return b.tails[it.assign.DPRow(pg.Ranks[s])] }
		for s := range c {
			switch {
			case !pr.pristine:
				c[s] = tail(s)
			case s == 0 && pr.overlapped:
				c[s] = tail(0)
			case s == 0:
				c[s] = maxTail
			case pr.overlapped:
				c[s] = math.Max(tail(s), c[s-1]+hops[s-1]+it.tb[s-1])
			default:
				c[s] = c[s-1] + hops[s-1] + it.tb[s-1]
			}
		}
	}
	if pr.pristine {
		n := 0
		for _, bytes := range b.bytes {
			if bytes > 0 {
				n++
			}
		}
		pr.links = make([]charged, 0, n)
		for id, bytes := range b.bytes {
			if bytes > 0 {
				pr.links = append(pr.links, charged{it.fab.Link(id), bytes})
			}
		}
	}
	return pr
}

// opDone evaluates the projection at an op completion of stage s of the
// pipeline whose table is chain, and halts the run once it exceeds the
// deadline beyond the bound's slack.
func (pr *projection) opDone(chain []float64, s, remF, remB int, now sim.Time) {
	drain := float64(remF)*pr.tf[s] + float64(remB)*pr.tb[s]
	lb := drain + chain[s]
	if pr.pristine {
		lb = math.Max(lb, pr.volume())
	} else if pr.overlapped {
		lb = math.Max(drain, float64(remB)*pr.tb[s]+chain[s])
	}
	end := now + lb
	pr.peak = math.Max(pr.peak, end)
	if end > pr.dl.Load()*(1+boundSlack) {
		pr.eng.Halt()
	}
}

// volume returns the largest time any link needs for the charged bytes it
// has yet to admit. Admissions only shrink a link's time, so the largest
// stays put until its own link admits; only then are the links rescanned,
// dropping every link with nothing left to admit.
func (pr *projection) volume() float64 {
	if pr.top != nil && pr.top.Admitted() == pr.topAdmitted {
		return pr.topLeft
	}
	pr.top, pr.topLeft = nil, 0
	for i := 0; i < len(pr.links); {
		c := pr.links[i]
		left := (c.bytes - c.link.Admitted()) / c.link.Capacity
		if left <= 0 {
			last := len(pr.links) - 1
			pr.links[i] = pr.links[last]
			pr.links = pr.links[:last]
			continue
		}
		if left > pr.topLeft {
			pr.top, pr.topLeft = c.link, left
		}
		i++
	}
	if pr.top != nil {
		pr.topAdmitted = pr.top.Admitted()
	}
	return pr.topLeft
}
