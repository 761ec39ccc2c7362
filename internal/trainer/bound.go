package trainer

import (
	"errors"
	"math"

	"holmes/internal/comm"
	"holmes/internal/netsim"
)

// ErrAboveBound reports a run stopped by its Deadline: the iteration
// provably takes longer than the caller's incumbent, and its exact time
// was not worth computing. Branch-and-bound callers treat it as
// "candidate lost", never as a planning failure.
var ErrAboveBound = errors.New("trainer: iteration time exceeds the abort bound")

// boundSlack scales the bound down by the relative rounding the
// simulator's sequential additions may differ from the bound's sums by;
// the abort projection's deadline carries the same slack upwards.
const boundSlack = 1e-9

// LowerBound returns a lower bound on the iteration time Run reports on
// the pristine fabric (the configuration's scenario is ignored). It
// evaluates the prepared iteration in closed form instead of running its
// events, so it costs tens of microseconds where Run costs milliseconds.
// That is what lets the joint (t, p) search order and prune candidates
// before simulating them (core.Planner.SearchPlan). The bound and its
// terms are evaluated once, on the first call or bounded run, and a
// bounded run's abort projection reuses them; a first call after Run
// would read the fabric the run left behind, so call it before Run.
//
// The bound is the largest of three families of terms, each a lower
// bound on any run of the iteration (property-tested in bound_test.go):
//
//  1. Per-pipeline chains. A stage runs its 2m ops serially, starts no
//     earlier than its first forward's input can arrive, and runs its
//     backwards in micro-batch order (a blocked backward fences the
//     stage), so its first backward is B(0) and its last op is B(m−1).
//     With hop_s = Latency + bytes/PairBandwidth on the pipeline's own
//     class — no flow outruns its path's slowest link —
//     start(s) = stagger + Σ_{j<s} (tf_j + hop_j),
//     lastB(s) = max(start(s) + m·(tf_s + tb_s), lastB(s+1) + hop_s + tb_s),
//     firstB(s) = max(start(s) + tf_s, firstB(s+1) + hop_s) + tb_s.
//     The pipeline ends no earlier than lastB(0).
//  2. Per-data-parallel-group tails on the group's own links. A ring
//     collective of b bytes starts all its edge flows at once, each edge
//     carrying (d−1)/d·b, and the flows sharing a link never together
//     exceed its capacity, so it takes at least the smallest edge latency
//     plus (d−1)/d·b times the group's worst link load (its edges on the
//     link over the link's capacity; a node's intra-node edges all share
//     its one NVLink link). Buckets serialize, and bucket k waits for
//     every member's B(k). Overlapped optimizer: the group ends no
//     earlier than max(lastB + one bucket, firstB + m buckets) + the
//     optimizer step + the all-gather. Otherwise every group reduces
//     after the last pipeline ends: that end + the full reduce-scatter +
//     the step + the all-gather.
//  3. Link volume. Every flow of the iteration — m hops each way per
//     pipeline boundary, and every ring edge's reduce-scatter and
//     all-gather bytes — is charged to the links on its path. A link
//     delivers at most its capacity, and every one of those flows
//     completes before the iteration does, so the iteration ends no
//     earlier than the link's earliest admission plus its bytes over its
//     capacity. On the hybrid and multi-cluster shapes this term usually
//     binds at the inter-cluster trunk every cross-cluster pipeline hop
//     shares.
//
// On a contention-free cell the chains and tails equal the simulated
// time up to rounding; the result is scaled by (1 − boundSlack) so that
// rounding can never make it overshoot.
func (it *Iteration) LowerBound() float64 { return it.bound().value }

// ThroughputUpperBound converts the iteration-time lower bound into a
// samples/s upper bound — the pruning test of the joint search: a
// candidate whose upper bound cannot beat the incumbent's simulated
// throughput need not be simulated at all.
func (it *Iteration) ThroughputUpperBound() float64 {
	lb := it.LowerBound()
	if lb <= 0 {
		return math.Inf(1)
	}
	return float64(it.cfg.Spec.GlobalBatch) / lb
}

// ThroughputUpperBound prepares the configuration's iteration and
// returns its throughput upper bound.
func ThroughputUpperBound(cfg Config) (float64, error) {
	it, err := Prepare(cfg)
	if err != nil {
		return 0, err
	}
	return it.ThroughputUpperBound(), nil
}

// boundTerms is the bound together with the terms it computes on the way
// that the abort projection reuses.
type boundTerms struct {
	value float64
	// hops[g·p+s], for s < p−1, is pipeline g's backward hop from stage
	// s+1 to stage s: Latency + bytes/PairBandwidth on its class.
	hops []float64
	// tails holds each data-parallel group's tail (see dpTail), by row.
	tails []float64
	// bytes holds the traffic charged to each link, by link id.
	bytes []float64
}

// bound evaluates the prepared iteration's bound (see LowerBound) and its
// terms on first use, and returns them.
func (it *Iteration) bound() *boundTerms {
	if it.bounded {
		return &it.terms
	}
	p, m := it.deg.P, float64(it.m)
	tf, tb := it.tf, it.tb
	fab := it.fab
	pipes := it.world.PPGroups

	// Per-link traffic and the earliest instant any of it can be
	// admitted.
	vol := newLinkVolume(fab.NumLinks())

	// Per-pipeline chains and hops, flattened pipeline-major, and the
	// group tails, all in one allocation.
	n := len(pipes) * p
	buf := make([]float64, 4*n+len(it.world.DPGroups))
	start, firstB, lastB, hops := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n]
	tails := buf[4*n:]
	pipeEnd := 0.0
	for g, pg := range pipes {
		r := pg.Ranks
		st, fb, lb := start[g*p:(g+1)*p], firstB[g*p:(g+1)*p], lastB[g*p:(g+1)*p]
		st[0] = it.stagger(pg)
		for s := 0; s+1 < p; s++ {
			fwd := fab.Route(r[s], r[s+1], pg.Class)
			st[s+1] = st[s] + tf[s] + fwd.Latency + it.actBytes/fwd.Bandwidth
			vol.charge(fwd, m*it.actBytes, st[s]+tf[s])
		}
		lb[p-1] = st[p-1] + m*(tf[p-1]+tb[p-1])
		fb[p-1] = st[p-1] + tf[p-1] + tb[p-1]
		for s := p - 2; s >= 0; s-- {
			bwd := fab.Route(r[s+1], r[s], pg.Class)
			hop := bwd.Latency + it.actBytes/bwd.Bandwidth
			hops[g*p+s] = hop
			lb[s] = math.Max(st[s]+m*(tf[s]+tb[s]), lb[s+1]+hop+tb[s])
			fb[s] = math.Max(st[s]+tf[s], fb[s+1]+hop) + tb[s]
			vol.charge(bwd, m*it.actBytes, fb[s+1])
		}
		pipeEnd = math.Max(pipeEnd, lb[0])
	}
	bound := pipeEnd

	// Per-group tails; every ring edge's bytes are charged as well.
	rings := newRingScratch(fab.NumLinks())
	for row, g := range it.world.DPGroups {
		s := it.assign.StageOf(g.Ranks[0])
		gFirst, gLast := 0.0, 0.0
		for _, r := range g.Ranks {
			i := it.assign.PPRow(r)*p + s
			gFirst = math.Max(gFirst, firstB[i])
			gLast = math.Max(gLast, lastB[i])
		}
		// The group's reduce-scatter starts with its first bucket, or
		// after the flush when the optimizer does not overlap.
		rsFrom := pipeEnd
		if it.opt.OverlappedOptimizer {
			rsFrom = gFirst
		}
		grad, param := it.dpBytes(s)
		perEdge := float64(len(g.Ranks)-1) / float64(len(g.Ranks)) * (grad + param)
		bucket, tail := it.dpTail(rings, g, func(e netsim.Route) { vol.charge(e, perEdge, rsFrom) })
		tails[row] = tail
		end := pipeEnd + tail
		if it.opt.OverlappedOptimizer {
			// Buckets run one at a time, the first from gFirst, the last
			// from gLast.
			end = math.Max(gLast, gFirst+(m-1)*bucket) + tail
		}
		bound = math.Max(bound, end)
	}

	for id, bytes := range vol.bytes {
		if bytes > 0 {
			bound = math.Max(bound, vol.from[id]+bytes/fab.Link(id).Capacity)
		}
	}
	it.terms = boundTerms{value: bound * (1 - boundSlack), hops: hops, tails: tails, bytes: vol.bytes}
	it.bounded = true
	return &it.terms
}

// dpTail bounds a data-parallel group's collectives on its own links:
// one reduce-scatter bucket, and the tail from its last bucket's
// readiness to the group's end — that bucket, the optimizer step and the
// parameter all-gather. Each ring edge's route goes to visit unless it
// is nil.
func (it *Iteration) dpTail(rs *ringScratch, g *comm.Group, visit func(netsim.Route)) (bucket, tail float64) {
	ring := rs.load(it.fab, g, visit)
	grad, param := it.dpBytes(it.assign.StageOf(g.Ranks[0]))
	bucket = ring.seconds(grad / float64(it.buckets()))
	return bucket, bucket + it.calib.OptimizerSeconds + ring.seconds(param)
}

// linkVolume accumulates bytes per link and the earliest admission of
// any of them.
type linkVolume struct {
	bytes, from []float64
}

func newLinkVolume(links int) linkVolume {
	v := linkVolume{bytes: make([]float64, links), from: make([]float64, links)}
	for i := range v.from {
		v.from[i] = math.Inf(1)
	}
	return v
}

// charge adds bytes to every link of a route whose transfer is sent no
// earlier than from; it occupies the links a latency later.
func (v linkVolume) charge(r netsim.Route, bytes, from float64) {
	for _, l := range r.Links[:r.N] {
		id := l.ID()
		v.bytes[id] += bytes
		v.from[id] = math.Min(v.from[id], from+r.Latency)
	}
}

// ringLoad is a ring collective's lower-bound cost model over one group:
// seconds(b) = lat + (d−1)/d · b · perByte.
type ringLoad struct {
	d       int
	lat     float64 // smallest edge latency
	perByte float64 // worst link: the group's edges on it over its capacity
}

// seconds bounds a ring collective of b bytes from below; a single-rank
// group completes at once.
func (r ringLoad) seconds(bytes float64) float64 {
	if r.d <= 1 || bytes <= 0 {
		return 0
	}
	return r.lat + float64(r.d-1)/float64(r.d)*bytes*r.perByte
}

// ringScratch counts a group's ring edges per link without allocating
// per group.
type ringScratch struct {
	edges   []int
	touched []int
}

func newRingScratch(links int) *ringScratch {
	return &ringScratch{edges: make([]int, links)}
}

// load builds the ring cost model of a group on a fabric, handing each
// ring edge's route to visit when it is not nil.
func (rs *ringScratch) load(fab *netsim.Fabric, g *comm.Group, visit func(netsim.Route)) ringLoad {
	d := len(g.Ranks)
	out := ringLoad{d: d, lat: math.Inf(1)}
	if d <= 1 {
		return out
	}
	for i, src := range g.Ranks {
		e := fab.Route(src, g.Ranks[(i+1)%d], g.Class)
		if visit != nil {
			visit(e)
		}
		out.lat = math.Min(out.lat, e.Latency)
		// A flow never outruns its path's slowest link or its own rate
		// cap, whatever the sharing.
		out.perByte = math.Max(out.perByte, 1/e.Bandwidth)
		for _, l := range e.Links[:e.N] {
			id := l.ID()
			if rs.edges[id] == 0 {
				rs.touched = append(rs.touched, id)
			}
			rs.edges[id]++
		}
	}
	for _, id := range rs.touched {
		out.perByte = math.Max(out.perByte, float64(rs.edges[id])/fab.Link(id).Capacity)
		rs.edges[id] = 0
	}
	rs.touched = rs.touched[:0]
	return out
}
