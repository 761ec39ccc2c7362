// Package netsim is a flow-level network simulator for the heterogeneous
// NIC environments of the paper.
//
// It substitutes for the physical fabric of the authors' testbed (200 Gb/s
// InfiniBand ×4 per IB node, 200 Gb/s RoCE ×2 per RoCE node, 25 Gb/s
// Ethernet everywhere, NVLink inside nodes). Transfers are modelled as
// fluid flows over a graph of capacitated links with max-min fair
// bandwidth sharing and a per-technology message latency (the α in the
// classic α–β cost model); rates are recomputed whenever a flow starts or
// finishes, and flow completions drive the discrete-event engine.
//
// Rebalancing is incremental: a flow arrival or departure recomputes the
// progressive-filling allocation only over the connected component of
// links and flows it touches (flows elsewhere keep their rates, which a
// max-min allocation leaves unchanged across components), simultaneous
// events coalesce into one pass, and all bookkeeping lives in reusable
// scratch slices. The original from-scratch recomputation is retained
// behind Params.FullRecompute as the reference oracle.
//
// Flow records live in a per-fabric slab with a free list, each with its
// event callback bound once, so a warmed fabric starts, admits, finishes
// and aborts flows without allocating. A record returns to the free list
// once it can fire nothing more; StartFlow hands out a FlowID carrying the
// record's generation, so a handle outliving its flow is stale and
// AbortFlow ignores it.
package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"holmes/internal/sim"
	"holmes/internal/topology"
)

// Class selects which network a transfer rides on. The Holmes Automatic
// NIC Selection component (§3.2) chooses a class per communication group.
type Class int

const (
	// Intra uses the intra-node interconnect (NVLink or PCIe).
	Intra Class = iota
	// RDMA uses the node's RDMA NIC pool (InfiniBand or RoCE). Falls back
	// to Ethernet when the endpoints do not share a compatible RDMA fabric.
	RDMA
	// Ether uses the commodity Ethernet NIC.
	Ether
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Intra:
		return "Intra"
	case RDMA:
		return "RDMA"
	case Ether:
		return "Ether"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Params holds technology constants. Bandwidth efficiencies capture
// protocol overhead and (for RoCE) PFC/congestion-control losses observed
// in practice; latencies are per-message α terms.
type Params struct {
	// Efficiency of each NIC technology: achievable fraction of line rate.
	IBEff   float64
	RoCEEff float64
	EthEff  float64
	// Per-message latency in seconds by technology.
	IBLatency   float64
	RoCELatency float64
	EthLatency  float64
	// Intra-node link bandwidth (bytes/s per direction) and latency.
	NVLinkBytesPerSec float64
	PCIeBytesPerSec   float64
	IntraLatency      float64
	// InterClusterGbps caps the Ethernet trunk between each pair of
	// clusters; zero means non-blocking (node NICs are the constraint).
	InterClusterGbps float64
	// InterClusterGbpsPerNode adds trunk capacity proportional to the
	// smaller cluster's node count: each node contributes an uplink to
	// the inter-cluster path. Combined with InterClusterGbps when both
	// are set.
	InterClusterGbpsPerNode float64
	// EthPerFlowBytesPerSec caps a single Ethernet flow's rate, modelling
	// the single-stream throughput limit of TCP/socket transports on
	// commodity NICs (NCCL's socket path tops out well below line rate on
	// one connection). Zero means uncapped.
	EthPerFlowBytesPerSec float64
	// FullRecompute disables the incremental rebalancer: every arrival or
	// departure recomputes max-min rates for the whole fabric from
	// scratch, as the original implementation did. Much slower; kept as
	// the reference oracle the incremental path is tested against.
	FullRecompute bool
}

// DefaultParams reflects measured characteristics of the technologies in
// the paper's testbed. RoCE efficiency is markedly lower than InfiniBand:
// lossless-Ethernet flow control (PFC) and DCQCN congestion control leave a
// 200 Gb/s RoCE NIC well short of an equally-rated IB NIC, which together
// with the 2-vs-4 NIC count reproduces the IB/RoCE gap in Table 1.
func DefaultParams() Params {
	return Params{
		IBEff:                 0.93,
		RoCEEff:               0.80,
		EthEff:                0.88,
		IBLatency:             2e-6,
		RoCELatency:           5e-6,
		EthLatency:            30e-6,
		NVLinkBytesPerSec:     250e9, // A100 NVLink, usable per direction
		PCIeBytesPerSec:       25e9,  // PCIe gen4 x16 effective
		IntraLatency:          1.5e-6,
		InterClusterGbps:      0, // non-blocking by default
		EthPerFlowBytesPerSec: 0, // uncapped (NCCL multi-socket reaches line rate)
	}
}

// maxPathLinks is the longest path the fabric produces: Ethernet out-link,
// in-link, and an optional inter-cluster trunk.
const maxPathLinks = 3

// Link is one capacitated fluid link: a node NIC's out or in direction,
// a node's intra-node interconnect, or an inter-cluster trunk.
type Link struct {
	// Capacity in bytes per second.
	Capacity float64

	id    int
	kind  linkKind
	a, b  int     // node index; a trunk's cluster pair
	flows []*flow // active flows, swap-removed on departure

	// Rebalance scratch, meaningful only inside Fabric.rebalance.
	residual  float64
	nUnfrozen int
	seen      int  // epoch mark: collected into the current region
	dirty     bool // queued as a seed for the pending rebalance
}

// linkKind says what a link models; with its indices it names the link.
type linkKind uint8

const (
	rdmaOut linkKind = iota
	rdmaIn
	ethOut
	ethIn
	nvlink
	trunk
)

// Name labels the link ("n3.rdma.out", "trunk.c0-c1"). It is formatted
// on demand, so building a fabric formats nothing.
func (l *Link) Name() string {
	switch l.kind {
	case rdmaOut:
		return fmt.Sprintf("n%d.rdma.out", l.a)
	case rdmaIn:
		return fmt.Sprintf("n%d.rdma.in", l.a)
	case ethOut:
		return fmt.Sprintf("n%d.eth.out", l.a)
	case ethIn:
		return fmt.Sprintf("n%d.eth.in", l.a)
	case nvlink:
		return fmt.Sprintf("n%d.nvlink", l.a)
	default:
		return fmt.Sprintf("trunk.c%d-c%d", l.a, l.b)
	}
}

// ID is the link's index in its fabric, in [0, Fabric.NumLinks()).
func (l *Link) ID() int { return l.id }

// FlowID is a handle to a flow, returned by StartFlow and
// StartFlowRateCapped. The zero FlowID refers to no flow, and a handle
// goes stale once its flow finishes or is aborted.
type FlowID struct {
	slot int32
	gen  uint32
}

// flow is one in-flight transfer: a record of the fabric's flow slab.
// Links point at records, so a record never moves; gen advances every
// time the record is released, invalidating the handles issued for it.
type flow struct {
	src, dst int // global ranks
	class    Class

	path      [maxPathLinks]*Link
	pathPos   [maxPathLinks]int // this flow's index in each path link's flows
	nPath     int
	remaining float64
	rate      float64
	cap       float64 // per-flow rate ceiling (Inf when uncapped)
	updatedAt sim.Time
	doneEv    sim.Event // pending completion; the zero Event when none
	onDone    func()
	started   bool
	admitted  bool // currently occupying links

	seen     int // epoch mark: collected into the current region
	frozen   bool
	prevRate float64
	aborted  bool

	// Kept across reuse: the record's slab index, its generation, and
	// the one callback serving every event of every flow it holds.
	slot int32
	gen  uint32
	fire func() // admits the flow, then finishes it
}

// Fabric binds a topology to link state and an event engine.
type Fabric struct {
	Topo   *topology.Topology
	Params Params
	eng    *sim.Engine

	// Per-node directional links.
	nodeRDMAOut, nodeRDMAIn []*Link
	nodeEthOut, nodeEthIn   []*Link
	nodeIntra               []*Link
	// Optional inter-cluster trunks, keyed by ordered cluster pair.
	trunks map[[2]int]*Link

	// Packet-impairment state per (node, class, direction), and the
	// seeded source jitter draws come from (see impair.go). Empty and
	// nil until a scenario installs an impairment, so unimpaired runs
	// never consult either.
	impair    map[impairKey]Impairment
	jitterRng *rand.Rand

	links    []*Link // registry of every link, indexed by id
	slab     []Link  // backs links; sized at construction, never grown
	inFlight int

	// Flow records by slot, and the slots free for reuse.
	flows     []*flow
	freeFlows []int32

	// Rebalance machinery: seed links accumulated since the last pass,
	// whether a coalesced pass is already scheduled at the current
	// instant (flushFn, bound once, is its callback), and reusable region
	// scratch.
	dirtySeeds   []*Link
	rebalPending bool
	flushFn      func()
	epoch        int
	regionLinks  []*Link
	regionFlows  []*flow
}

// New creates a fabric over topo driven by eng.
func New(eng *sim.Engine, topo *topology.Topology, p Params) *Fabric {
	f := &Fabric{
		Topo:   topo,
		Params: p,
		eng:    eng,
		trunks: make(map[[2]int]*Link),
	}
	f.flushFn = f.flushRebalance
	// Every link lives in one slab and every table is sized up front, so
	// building a fabric allocates a fixed handful of times, however many
	// nodes it has.
	nodes, trunks := topo.NumNodes(), 0
	if p.InterClusterGbps > 0 || p.InterClusterGbpsPerNode > 0 {
		c := topo.NumClusters()
		trunks = c * (c - 1) / 2
	}
	f.slab = make([]Link, 0, 5*nodes+trunks)
	f.links = make([]*Link, 0, 5*nodes+trunks)
	f.nodeRDMAOut = make([]*Link, 0, nodes)
	f.nodeRDMAIn = make([]*Link, 0, nodes)
	f.nodeEthOut = make([]*Link, 0, nodes)
	f.nodeEthIn = make([]*Link, 0, nodes)
	f.nodeIntra = make([]*Link, 0, nodes)
	for _, n := range topo.Nodes() {
		rdmaBps := n.RDMAGbps() / 8 * 1e9 * f.rdmaEff(n.RDMAType())
		ethBps := n.EthNIC.Gbps / 8 * 1e9 * p.EthEff
		intraBps := p.NVLinkBytesPerSec
		if n.Intra == topology.PCIe {
			intraBps = p.PCIeBytesPerSec
		}
		id := n.Index
		f.nodeRDMAOut = append(f.nodeRDMAOut, f.newLink(rdmaOut, id, 0, rdmaBps))
		f.nodeRDMAIn = append(f.nodeRDMAIn, f.newLink(rdmaIn, id, 0, rdmaBps))
		f.nodeEthOut = append(f.nodeEthOut, f.newLink(ethOut, id, 0, ethBps))
		f.nodeEthIn = append(f.nodeEthIn, f.newLink(ethIn, id, 0, ethBps))
		f.nodeIntra = append(f.nodeIntra, f.newLink(nvlink, id, 0, intraBps))
	}
	if p.InterClusterGbps > 0 || p.InterClusterGbpsPerNode > 0 {
		for i := range topo.Clusters {
			for j := i + 1; j < len(topo.Clusters); j++ {
				minNodes := len(topo.Clusters[i].Nodes)
				if n := len(topo.Clusters[j].Nodes); n < minNodes {
					minNodes = n
				}
				gbps := p.InterClusterGbps + p.InterClusterGbpsPerNode*float64(minNodes)
				bps := gbps / 8 * 1e9 * p.EthEff
				f.trunks[[2]int{i, j}] = f.newLink(trunk, i, j, bps)
			}
		}
	}
	return f
}

// newLink registers a link in the fabric-wide registry, assigning it the
// next id. Ids give the rebalancer a canonical processing order.
func (f *Fabric) newLink(kind linkKind, a, b int, capacity float64) *Link {
	f.slab = append(f.slab, Link{Capacity: capacity, id: len(f.links), kind: kind, a: a, b: b})
	l := &f.slab[len(f.slab)-1]
	f.links = append(f.links, l)
	return l
}

func (f *Fabric) rdmaEff(t topology.NICType) float64 {
	switch t {
	case topology.InfiniBand:
		return f.Params.IBEff
	case topology.RoCE:
		return f.Params.RoCEEff
	default:
		return f.Params.EthEff
	}
}

// EffectiveClass resolves the class actually usable between two ranks:
// Intra when the ranks share a node; RDMA degrades to Ether when the
// endpoints lack a shared RDMA fabric (different clusters, incompatible
// NICs, or no RDMA at all) — the incompatibility rule of §1.
func (f *Fabric) EffectiveClass(src, dst int, want Class) Class {
	if f.Topo.SameNode(src, dst) {
		return Intra
	}
	if want == RDMA && f.Topo.BestCommonNIC(src, dst).IsRDMA() {
		return RDMA
	}
	return Ether
}

// Latency returns the per-message α term for a (src,dst,class) path:
// the technology base latency, plus any scripted added delay on the
// path's impaired sides, inflated by the path's loss efficiency (each
// round of a lossy handshake retries with probability 1-efficiency).
// Deterministic — jitter, a per-flow random draw, is added by StartFlow,
// never here, so the analytic cost models stay pure.
func (f *Fabric) Latency(src, dst int, class Class) float64 {
	return f.latency(src, dst, f.EffectiveClass(src, dst, class))
}

// latency is Latency on an already effective class.
func (f *Fabric) latency(src, dst int, class Class) float64 {
	var lat float64
	switch class {
	case Intra:
		lat = f.Params.IntraLatency
	case RDMA:
		if f.Topo.NodeOf(src).RDMAType() == topology.InfiniBand {
			lat = f.Params.IBLatency
		} else {
			lat = f.Params.RoCELatency
		}
	default:
		lat = f.Params.EthLatency
		sc, dc := f.Topo.Device(src).Cluster, f.Topo.Device(dst).Cluster
		if sc != dc && f.HasTrunk(sc, dc) {
			// Extra hops through the inter-cluster trunk. Conditional on
			// the same lookup path() uses: a trunkless (non-blocking)
			// cluster pair traverses no extra link, so it pays no extra
			// latency either.
			lat *= 2
		}
	}
	if len(f.impair) > 0 {
		extra, eff := f.pathImpair(src, dst, class)
		lat = (lat + extra) / eff
	}
	return lat
}

// NumLinks reports how many links the fabric has; Link.ID indexes them.
func (f *Fabric) NumLinks() int { return len(f.links) }

// Link returns the link with the given ID.
func (f *Fabric) Link(id int) *Link { return f.links[id] }

// Route is the uncontended view of one (src, dst, class) transfer: the
// links it crosses, its Latency and its PairBandwidth.
type Route struct {
	Links     [maxPathLinks]*Link // the first N entries are the path
	N         int
	Latency   float64
	Bandwidth float64
}

// Route resolves a transfer's path, latency and bottleneck bandwidth in
// one pass. It reads the fabric only: analytic cost models charge
// traffic to links with it.
func (f *Fabric) Route(src, dst int, class Class) Route {
	class = f.EffectiveClass(src, dst, class)
	r := Route{Latency: f.latency(src, dst, class)}
	r.Links, r.N = f.effectivePath(src, dst, class)
	r.Bandwidth = f.bottleneck(r.Links[:r.N], class)
	return r
}

// path returns the link sequence for a transfer in a fixed-size array to
// keep flow admission allocation-free.
func (f *Fabric) path(src, dst int, class Class) ([maxPathLinks]*Link, int) {
	return f.effectivePath(src, dst, f.EffectiveClass(src, dst, class))
}

// effectivePath is path on an already effective class.
func (f *Fabric) effectivePath(src, dst int, class Class) ([maxPathLinks]*Link, int) {
	var p [maxPathLinks]*Link
	sn, dn := f.Topo.Device(src).Node, f.Topo.Device(dst).Node
	switch class {
	case Intra:
		p[0] = f.nodeIntra[sn]
		return p, 1
	case RDMA:
		p[0], p[1] = f.nodeRDMAOut[sn], f.nodeRDMAIn[dn]
		return p, 2
	default:
		p[0], p[1] = f.nodeEthOut[sn], f.nodeEthIn[dn]
		n := 2
		sc, dc := f.Topo.Device(src).Cluster, f.Topo.Device(dst).Cluster
		if sc != dc {
			lo, hi := sc, dc
			if lo > hi {
				lo, hi = hi, lo
			}
			if trunk, ok := f.trunks[[2]int{lo, hi}]; ok {
				p[n] = trunk
				n++
			}
		}
		return p, n
	}
}

// StartFlow begins a transfer of the given size between two ranks. onDone
// fires (in virtual time) when the last byte arrives. A zero-byte flow
// completes after just the latency term.
func (f *Fabric) StartFlow(src, dst int, bytes float64, class Class, onDone func()) FlowID {
	return f.StartFlowRateCapped(src, dst, bytes, class, 0, onDone)
}

// StartFlowRateCapped is StartFlow with an explicit per-flow rate ceiling
// in bytes/s on top of any technology-wide cap: the flow offers at most
// rateCap of load but still shares max-min fairly under congestion.
// Background-traffic injection (internal/scenario) uses it to model a
// tenant streaming at a fixed rate. rateCap <= 0 means uncapped.
func (f *Fabric) StartFlowRateCapped(src, dst int, bytes float64, class Class, rateCap float64, onDone func()) FlowID {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("netsim: bad flow size %v", bytes))
	}
	fl := f.newFlow()
	fl.src, fl.dst, fl.class = src, dst, f.EffectiveClass(src, dst, class)
	fl.remaining, fl.onDone = bytes, onDone
	fl.cap = math.Inf(1)
	if fl.class == Ether && f.Params.EthPerFlowBytesPerSec > 0 {
		fl.cap = f.Params.EthPerFlowBytesPerSec
	}
	if rateCap > 0 && rateCap < fl.cap {
		fl.cap = rateCap
	}
	lat := f.Latency(src, dst, class)
	// Jitter is a per-flow draw on top of the deterministic α; symmetric
	// distributions can pull the sum below zero, which clamps (a message
	// cannot arrive before it was sent).
	if lat += f.sampleJitter(src, dst, fl.class); lat < 0 {
		lat = 0
	}
	// The flow occupies links only after its latency term elapses; for
	// zero-byte control messages it completes then.
	f.eng.After(lat, fl.fire)
	return FlowID{slot: fl.slot, gen: fl.gen}
}

// newFlow takes a record from the free list, or grows the slab by one
// record with its callback bound. One callback serves every event of the
// flow: the admission at the end of the latency term, then each
// (re-armed) completion.
func (f *Fabric) newFlow() *flow {
	if n := len(f.freeFlows); n > 0 {
		fl := f.flows[f.freeFlows[n-1]]
		f.freeFlows = f.freeFlows[:n-1]
		return fl
	}
	fl := &flow{slot: int32(len(f.flows)), gen: 1}
	fl.fire = func() {
		if fl.started {
			f.finish(fl)
		} else {
			f.admit(fl)
		}
	}
	f.flows = append(f.flows, fl)
	return fl
}

// releaseFlow resets a record that can fire nothing more and returns it
// to the free list. Every field but the slot and the callback is zeroed,
// so nothing of the old flow (its rate, progress or completion event)
// reaches the next one, and the generation advances, so every handle
// issued for the record goes stale.
func (f *Fabric) releaseFlow(fl *flow) {
	gen := fl.gen + 1
	if gen == 0 { // wrapped: generation 0 is the zero FlowID's
		gen = 1
	}
	*fl = flow{slot: fl.slot, gen: gen, fire: fl.fire}
	f.freeFlows = append(f.freeFlows, fl.slot)
}

// lookup resolves a handle to its record, or nil when the handle is zero
// or stale.
func (f *Fabric) lookup(id FlowID) *flow {
	if id.gen == 0 || int(id.slot) >= len(f.flows) {
		return nil
	}
	if fl := f.flows[id.slot]; fl.gen == id.gen {
		return fl
	}
	return nil
}

func (f *Fabric) admit(fl *flow) {
	if fl.aborted {
		// Aborted during its latency term: this admission event was the
		// last one that could reference the record.
		f.releaseFlow(fl)
		return
	}
	fl.started = true
	if fl.remaining <= 0 {
		f.finish(fl)
		return
	}
	// Loss/corruption derate goodput multiplicatively: retransmitted
	// bytes occupy the wire, so delivering b bytes of goodput moves
	// b/efficiency across the links. Sampled at admission — flows
	// already on the wire keep the efficiency they started with.
	if eff := f.pathEff(fl.src, fl.dst, fl.class); eff < 1 {
		fl.remaining /= eff
	}
	fl.path, fl.nPath = f.path(fl.src, fl.dst, fl.class)
	fl.updatedAt = f.eng.Now()
	fl.admitted = true
	f.inFlight++
	for i := 0; i < fl.nPath; i++ {
		l := fl.path[i]
		fl.pathPos[i] = len(l.flows)
		l.flows = append(l.flows, fl)
	}
	f.scheduleRebalance(fl)
}

func (f *Fabric) finish(fl *flow) {
	done := fl.onDone
	f.retire(fl)
	if done != nil {
		done()
	}
}

// retire ends a started flow: it cancels the pending completion, takes an
// admitted flow off its links, queueing the rebalance that hands its
// bandwidth to the survivors, and releases the record.
func (f *Fabric) retire(fl *flow) {
	f.disarm(fl)
	if fl.admitted {
		for i := 0; i < fl.nPath; i++ {
			f.unlink(fl.path[i], fl.pathPos[i])
		}
		f.inFlight--
		f.scheduleRebalance(fl)
	}
	f.releaseFlow(fl)
}

// disarm cancels the flow's pending completion event, if any.
func (f *Fabric) disarm(fl *flow) {
	f.eng.Cancel(fl.doneEv)
	fl.doneEv = sim.Event{}
}

// unlink swap-removes the flow at pos from the link's flow list, fixing
// the moved flow's recorded position.
func (f *Fabric) unlink(l *Link, pos int) {
	last := len(l.flows) - 1
	moved := l.flows[last]
	l.flows[pos] = moved
	l.flows[last] = nil
	l.flows = l.flows[:last]
	if pos < last {
		for i := 0; i < moved.nPath; i++ {
			if moved.path[i] == l {
				moved.pathPos[i] = pos
				break
			}
		}
	}
}

// scheduleRebalance queues the flow's links as rebalance seeds; see
// scheduleLinkRebalance.
func (f *Fabric) scheduleRebalance(fl *flow) {
	f.scheduleLinkRebalance(fl.path[:fl.nPath]...)
}

// scheduleLinkRebalance queues links as rebalance seeds and, if no pass
// is pending, schedules one at the current instant. Scheduling instead
// of recomputing inline coalesces simultaneous arrivals, departures, and
// capacity changes — common when a collective's flows start or complete
// together — into a single progressive-filling pass. It is the only
// rebalance entry point; fault injection uses it too.
func (f *Fabric) scheduleLinkRebalance(links ...*Link) {
	for _, l := range links {
		if !l.dirty {
			l.dirty = true
			f.dirtySeeds = append(f.dirtySeeds, l)
		}
	}
	if !f.rebalPending {
		f.rebalPending = true
		f.eng.After(0, f.flushFn)
	}
}

func (f *Fabric) flushRebalance() {
	f.rebalPending = false
	seeds := f.dirtySeeds
	f.dirtySeeds = f.dirtySeeds[:0]
	for _, l := range seeds {
		l.dirty = false
	}
	f.rebalance(seeds)
}

// rebalance recomputes max-min fair rates and completion events for the
// region of the fabric reachable from the seed links: the connected
// component(s), via shared flows, that the last batch of arrivals and
// departures touched. Flows outside the region keep their rates — a
// max-min allocation decomposes over connected components, so they are
// unaffected by construction. Under Params.FullRecompute the region is
// the whole fabric, reproducing the original from-scratch behaviour.
func (f *Fabric) rebalance(seeds []*Link) {
	if f.Params.FullRecompute {
		seeds = f.links
	}
	links, flows := f.region(seeds)
	if len(flows) == 0 {
		return
	}
	for _, fl := range flows {
		fl.prevRate = fl.rate
		fl.frozen = false
	}
	f.fill(links, flows)
	f.reschedule(flows)
}

// region grows the seed links to the full set of links and flows whose
// rates the change can affect, using epoch marks so the scratch never
// needs clearing.
func (f *Fabric) region(seeds []*Link) ([]*Link, []*flow) {
	f.epoch++
	e := f.epoch
	links := f.regionLinks[:0]
	flows := f.regionFlows[:0]
	for _, l := range seeds {
		if l.seen != e && len(l.flows) > 0 {
			l.seen = e
			links = append(links, l)
		}
	}
	for i := 0; i < len(links); i++ {
		for _, fl := range links[i].flows {
			if fl.seen == e {
				continue
			}
			fl.seen = e
			flows = append(flows, fl)
			for j := 0; j < fl.nPath; j++ {
				if l2 := fl.path[j]; l2.seen != e {
					l2.seen = e
					links = append(links, l2)
				}
			}
		}
	}
	// Canonical link order keeps tie-breaking identical between the
	// incremental and full-recompute passes.
	sortLinksByID(links)
	f.regionLinks, f.regionFlows = links, flows
	return links, flows
}

// sortLinksByID is an in-place insertion sort; regions are small and the
// input is mostly ordered, so this beats sort.Slice without allocating.
func sortLinksByID(ls []*Link) {
	for i := 1; i < len(ls); i++ {
		l := ls[i]
		j := i - 1
		for j >= 0 && ls[j].id > l.id {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = l
	}
}

// fill runs progressive filling over one region: repeatedly freeze the
// flows of the most constraining link at its fair share (or flows at
// their per-flow cap when that is lower) until every flow has a rate.
func (f *Fabric) fill(links []*Link, flows []*flow) {
	for _, l := range links {
		l.residual = l.Capacity
		l.nUnfrozen = len(l.flows)
	}
	left := len(flows)
	for left > 0 {
		// Most constraining link: min residual / unfrozen count.
		var bottleneck *Link
		best := math.Inf(1)
		for _, l := range links {
			if l.nUnfrozen == 0 {
				continue
			}
			if share := l.residual / float64(l.nUnfrozen); share < best {
				best = share
				bottleneck = l
			}
		}
		// Flows whose per-flow ceiling is below the fair share freeze at
		// their cap first, returning the unused share to the links.
		capped := false
		for _, fl := range flows {
			if !fl.frozen && fl.cap < best {
				f.freeze(fl, fl.cap)
				capped = true
				left--
			}
		}
		if capped {
			continue
		}
		if bottleneck == nil {
			// Remaining flows traverse only flow-free links; give them a
			// degenerate zero rate (cannot happen with well-formed paths).
			for _, fl := range flows {
				if !fl.frozen {
					f.freeze(fl, 0)
					left--
				}
			}
			break
		}
		// Freeze the flows crossing the bottleneck at the fair share and
		// charge every link on their paths.
		for _, fl := range bottleneck.flows {
			if !fl.frozen {
				f.freeze(fl, best)
				left--
			}
		}
	}
}

func (f *Fabric) freeze(fl *flow, rate float64) {
	fl.frozen = true
	fl.rate = rate
	for i := 0; i < fl.nPath; i++ {
		l := fl.path[i]
		l.residual -= rate
		if l.residual < 0 {
			l.residual = 0
		}
		l.nUnfrozen--
	}
}

// reschedule re-arms completion events after a filling pass. A flow whose
// rate did not change keeps both its event and its progress bookkeeping —
// the absolute completion time computed when the rate was set is still
// exact. A changed rate re-keys the flow's one pending completion in
// place, which fires exactly where cancelling it and scheduling anew
// would. Progress drains lazily, in one multiply over the whole
// constant-rate interval, only when the rate actually changes; besides
// being cheaper, this makes the incremental and full-recompute modes
// bit-identical (piecewise drains would differ in final-ulp noise that a
// long chaotic simulation then amplifies).
func (f *Fabric) reschedule(flows []*flow) {
	now := f.eng.Now()
	for _, fl := range flows {
		if fl.doneEv != (sim.Event{}) && fl.rate == fl.prevRate {
			continue
		}
		fl.remaining -= fl.prevRate * (now - fl.updatedAt)
		if fl.remaining < 0 {
			fl.remaining = 0
		}
		fl.updatedAt = now
		var eta float64
		switch {
		case fl.remaining <= 0:
			eta = 0
		case fl.rate <= 0:
			f.disarm(fl) // starved; rescheduled at the next rebalance it joins
			continue
		default:
			eta = fl.remaining / fl.rate
		}
		if at := now + eta; !f.eng.Reschedule(fl.doneEv, at) {
			fl.doneEv = f.eng.At(at, fl.fire)
		}
	}
}

// InFlight reports the number of active flows.
func (f *Fabric) InFlight() int { return f.inFlight }

// TransferTime returns the contention-free α–β estimate for moving the
// given bytes between two ranks on a class: latency + bytes/bottleneck.
// It is the analytic counterpart of StartFlow, used by the collective cost
// models; it never mutates fabric state.
func (f *Fabric) TransferTime(src, dst int, bytes float64, class Class) float64 {
	t := f.Latency(src, dst, class)
	if bytes <= 0 {
		return t
	}
	bw := f.PairBandwidth(src, dst, class)
	if bw <= 0 {
		return math.Inf(1)
	}
	if len(f.impair) > 0 {
		// Mirror admit's goodput derate: the analytic estimate moves the
		// same inflated wire bytes the event-driven flow would.
		bytes /= f.pathEff(src, dst, f.EffectiveClass(src, dst, class))
	}
	return t + bytes/bw
}

// PairBandwidth returns the bottleneck bandwidth (bytes/s) of the path
// between two ranks for a class, absent contention (including the
// per-flow Ethernet stream cap).
func (f *Fabric) PairBandwidth(src, dst int, class Class) float64 {
	class = f.EffectiveClass(src, dst, class)
	path, n := f.effectivePath(src, dst, class)
	return f.bottleneck(path[:n], class)
}

// bottleneck is the smallest capacity on a path of the effective class,
// capped by the per-flow Ethernet stream rate; 0 for an empty path.
func (f *Fabric) bottleneck(path []*Link, class Class) float64 {
	bw := math.Inf(1)
	for _, l := range path {
		if l.Capacity < bw {
			bw = l.Capacity
		}
	}
	if class == Ether && f.Params.EthPerFlowBytesPerSec > 0 &&
		f.Params.EthPerFlowBytesPerSec < bw {
		bw = f.Params.EthPerFlowBytesPerSec
	}
	if math.IsInf(bw, 1) {
		return 0
	}
	return bw
}

// NodeBandwidth returns the per-node aggregate bandwidth in bytes/s for
// the class, after efficiency (the amount all GPUs of that node share).
func (f *Fabric) NodeBandwidth(nodeIdx int, class Class) float64 {
	switch class {
	case Intra:
		return f.nodeIntra[nodeIdx].Capacity
	case RDMA:
		return f.nodeRDMAOut[nodeIdx].Capacity
	default:
		return f.nodeEthOut[nodeIdx].Capacity
	}
}
