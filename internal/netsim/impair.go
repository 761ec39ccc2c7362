package netsim

// Packet-impairment state.
//
// The fluid model makes real-world packet impairments cheap to carry:
// added delay is an additive term on the per-message α, jitter is a
// seeded random draw added per flow start, and loss/corruption collapse
// into a multiplicative efficiency factor — lost or mangled packets are
// retransmitted, so they consume wire capacity without delivering
// goodput (remaining bytes inflate by 1/efficiency) and stretch the α
// term by the same factor (each round trip of a handshake retries with
// probability 1-efficiency).
//
// Impairments are keyed per (node, class, direction) so a timeline can
// target, say, only the inbound Ethernet side of one node, mirroring the
// per-direction rules of tc/netem front ends. They are orthogonal to
// link capacities: DegradeNode/FailNode/RestoreNode never touch them,
// and setting or clearing an impairment never touches capacities.

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist names a jitter distribution, matching the menu of tc/netem (and
// netsim-in-a-box's V2 API): uniform, normal, pareto.
type Dist string

// Jitter distributions. The empty string defaults to uniform.
const (
	DistUniform Dist = "uniform"
	DistNormal  Dist = "normal"
	DistPareto  Dist = "pareto"
)

// KnownDist reports whether d names a supported jitter distribution.
func KnownDist(d Dist) bool {
	switch d {
	case "", DistUniform, DistNormal, DistPareto:
		return true
	}
	return false
}

// Impairment is the packet-impairment state of one (node, class,
// direction): an added per-message latency, a jitter amplitude with its
// distribution, and a goodput efficiency in (0, 1]. The zero value means
// "no impairment"; Efficiency 0 reads as 1 (lossless) so callers can set
// only the fields they script.
type Impairment struct {
	// ExtraLatency is added to the α term of every flow crossing the
	// impaired direction, in seconds.
	ExtraLatency float64
	// JitterSeconds is the jitter amplitude: each flow start draws an
	// extra latency sample from JitterDist scaled by this amplitude.
	// Zero disables jitter.
	JitterSeconds float64
	// JitterDist selects the draw's distribution ("" = uniform).
	JitterDist Dist
	// Efficiency is the goodput fraction in (0, 1] after loss,
	// corruption, duplication, and reordering stalls; 0 reads as 1.
	Efficiency float64
}

// eff normalizes the zero value to lossless.
func (imp Impairment) eff() float64 {
	if imp.Efficiency <= 0 {
		return 1
	}
	return imp.Efficiency
}

// IsZero reports whether the impairment does nothing.
func (imp Impairment) IsZero() bool {
	return imp.ExtraLatency == 0 && imp.JitterSeconds == 0 && imp.eff() == 1
}

// impairKey addresses one impaired link direction.
type impairKey struct {
	node    int
	class   Class
	inbound bool
}

// SetImpairment installs (or replaces) the impairment of one node's
// class/direction. A zero impairment clears the entry. In-flight flows
// keep the α and efficiency they were admitted with — like a real
// network, impairment changes affect packets (here: flows) that start
// after the change.
func (f *Fabric) SetImpairment(nodeIdx int, class Class, inbound bool, imp Impairment) error {
	if nodeIdx < 0 || nodeIdx >= len(f.nodeEthOut) {
		return fmt.Errorf("netsim: node %d out of range", nodeIdx)
	}
	if imp.ExtraLatency < 0 || math.IsNaN(imp.ExtraLatency) || math.IsInf(imp.ExtraLatency, 0) {
		return fmt.Errorf("netsim: bad extra latency %v", imp.ExtraLatency)
	}
	if imp.JitterSeconds < 0 || math.IsNaN(imp.JitterSeconds) || math.IsInf(imp.JitterSeconds, 0) {
		return fmt.Errorf("netsim: bad jitter amplitude %v", imp.JitterSeconds)
	}
	if !KnownDist(imp.JitterDist) {
		return fmt.Errorf("netsim: unknown jitter distribution %q", string(imp.JitterDist))
	}
	if imp.Efficiency < 0 || imp.Efficiency > 1 || math.IsNaN(imp.Efficiency) {
		return fmt.Errorf("netsim: efficiency %v outside (0,1]", imp.Efficiency)
	}
	key := impairKey{node: nodeIdx, class: class, inbound: inbound}
	if imp.IsZero() {
		delete(f.impair, key)
		return nil
	}
	if f.impair == nil {
		f.impair = make(map[impairKey]Impairment)
	}
	f.impair[key] = imp
	return nil
}

// ImpairmentOf returns the current impairment of one node's
// class/direction (the zero value when unimpaired).
func (f *Fabric) ImpairmentOf(nodeIdx int, class Class, inbound bool) Impairment {
	return f.impair[impairKey{node: nodeIdx, class: class, inbound: inbound}]
}

// SeedJitter installs the PRNG source for jitter draws. Scenario
// runtimes own the seed so replays of the same timeline are
// bit-identical; without an explicit seed the fabric falls back to a
// fixed source, so direct fabric users are deterministic too.
func (f *Fabric) SeedJitter(seed int64) {
	f.jitterRng = rand.New(rand.NewSource(seed))
}

// rng returns the jitter source, creating the fixed-seed default on
// first use. No draw ever happens while the fabric is unimpaired, so
// impairment-free runs stay bit-identical to runs on a fabric that never
// heard of jitter.
func (f *Fabric) rng() *rand.Rand {
	if f.jitterRng == nil {
		f.jitterRng = rand.New(rand.NewSource(1))
	}
	return f.jitterRng
}

// pathImpair folds the impairments a (src, dst, class) transfer
// crosses — the source node's outbound side and the destination node's
// inbound side — into one added latency and one efficiency. class must
// already be resolved via EffectiveClass. Intra-node transfers consult
// only the node's outbound entry (one link, one node).
func (f *Fabric) pathImpair(src, dst int, class Class) (extra, eff float64) {
	eff = 1
	if len(f.impair) == 0 {
		return 0, 1
	}
	sn, dn := f.Topo.Device(src).Node, f.Topo.Device(dst).Node
	out := f.impair[impairKey{node: sn, class: class, inbound: false}]
	extra += out.ExtraLatency
	eff *= out.eff()
	if class != Intra {
		in := f.impair[impairKey{node: dn, class: class, inbound: true}]
		extra += in.ExtraLatency
		eff *= in.eff()
	}
	return extra, eff
}

// pathEff is pathImpair's efficiency alone.
func (f *Fabric) pathEff(src, dst int, class Class) float64 {
	_, eff := f.pathImpair(src, dst, class)
	return eff
}

// sampleJitter draws the jitter of one flow start: one sample per
// impaired side of the path, summed. Draw order is the deterministic
// flow-start order of the event engine, so a fixed seed yields
// bit-identical replays.
func (f *Fabric) sampleJitter(src, dst int, class Class) float64 {
	if len(f.impair) == 0 {
		return 0
	}
	sn, dn := f.Topo.Device(src).Node, f.Topo.Device(dst).Node
	j := f.drawJitter(f.impair[impairKey{node: sn, class: class, inbound: false}])
	if class != Intra {
		j += f.drawJitter(f.impair[impairKey{node: dn, class: class, inbound: true}])
	}
	return j
}

// drawJitter samples one impairment's jitter distribution, scaled by the
// amplitude. Uniform and normal are symmetric around zero (a packet can
// be early relative to the shifted mean); pareto is one-sided with mean
// ≈ amplitude, modelling the heavy late tail of bufferbloat spikes.
func (f *Fabric) drawJitter(imp Impairment) float64 {
	a := imp.JitterSeconds
	if a <= 0 {
		return 0
	}
	rng := f.rng()
	switch imp.JitterDist {
	case DistNormal:
		return a * rng.NormFloat64()
	case DistPareto:
		// Inverse-CDF of a Lomax (Pareto II) tail with shape 2: mean a,
		// unbounded late spikes, never early.
		u := rng.Float64()
		return a * (1/math.Sqrt(1-u) - 1)
	default: // uniform ±a
		return a * (2*rng.Float64() - 1)
	}
}

// trunkBetween resolves the inter-cluster trunk link for an unordered
// cluster pair (nil when the fabric is non-blocking between them).
func (f *Fabric) trunkBetween(c1, c2 int) *Link {
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	return f.trunks[[2]int{c1, c2}]
}

// HasTrunk reports whether a capacity-limited trunk exists between two
// clusters.
func (f *Fabric) HasTrunk(c1, c2 int) bool { return f.trunkBetween(c1, c2) != nil }

// TrunkBandwidth returns the trunk's current capacity in bytes/s, false
// when the pair is non-blocking.
func (f *Fabric) TrunkBandwidth(c1, c2 int) (float64, bool) {
	t := f.trunkBetween(c1, c2)
	if t == nil {
		return 0, false
	}
	return t.Capacity, true
}

// RestoreTrunk sets the trunk to an explicit capacity. Scenario
// partitions scale a trunk this way from the capacity TrunkBandwidth
// read, and restore it the same way; a fabric without a trunk between
// the pair errors, because there is no link to set.
func (f *Fabric) RestoreTrunk(c1, c2 int, capacity float64) error {
	if capacity < 0 {
		return fmt.Errorf("netsim: negative trunk capacity")
	}
	t := f.trunkBetween(c1, c2)
	if t == nil {
		return fmt.Errorf("netsim: no trunk between clusters %d and %d", c1, c2)
	}
	t.Capacity = capacity
	f.scheduleLinkRebalance(t)
	return nil
}

// AbortFlow cancels a flow without firing its completion callback: links
// are released, remaining traffic is discarded, and the rebalancer
// returns the freed bandwidth to the survivors. Aborting a flow still in
// its latency term (not yet admitted) prevents the admission; aborting a
// finished or already-aborted flow, or passing the zero FlowID, is a
// no-op. Scenario streams use this to cut a background chunk off at its
// deadline.
func (f *Fabric) AbortFlow(id FlowID) {
	fl := f.lookup(id)
	if fl == nil || fl.aborted {
		return
	}
	if !fl.started {
		// The pending admission event still calls the record's callback;
		// admit releases the record when it fires.
		fl.aborted = true
		fl.onDone = nil
		return
	}
	f.retire(fl)
}
