// Package scenario scripts cluster events over simulated time: NIC
// degradation, node failure and recovery, background traffic stealing
// bandwidth, nodes joining a cluster, and tc/netem-style packet
// impairments — delay, jitter, loss, corruption, link flapping,
// inter-cluster partitions, stragglers, and whole-cluster failures.
//
// The paper assumes stable links and always-on devices (§1, Limitations),
// but its motivating environments — aging, heterogeneous clusters — are
// exactly where NICs flap and tenants share the wire. A Scenario is a
// declarative, JSON-serializable timeline of such events. It is consumed
// two ways:
//
//   - Bind schedules the events onto a sim.Engine so they hit a
//     netsim.Fabric at the right simulated instants; trainer.Simulate
//     then reports iteration time *under* the scenario rather than on a
//     pristine fabric.
//   - StateAt / EffectiveTopology fold the timeline into the topology a
//     planner should reason about after the events: failed nodes
//     excluded, degraded NICs at reduced line rate, joined nodes added.
//     core.Planner.ReplanOn re-runs the joint (t, p) search on it.
//
// An empty scenario is a guaranteed no-op: Bind schedules nothing, so a
// simulation under Scenario{} is bit-identical to one without a scenario.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"holmes/internal/netsim"
)

// Kind enumerates the scripted event types.
type Kind string

const (
	// DegradeNIC scales one node's links of a class by Factor at time At
	// (0 < Factor ≤ 1); consecutive degrades of the same node compound.
	DegradeNIC Kind = "degrade_nic"
	// FailNode drops a node off the network fabric at time At: its RDMA
	// and Ethernet links collapse to a residual trickle (netsim.FailNode
	// semantics), and replanning excludes the node entirely.
	FailNode Kind = "fail_node"
	// RestoreNode returns a previously degraded or failed node to its
	// original capacities at time At.
	RestoreNode Kind = "restore_node"
	// BackgroundTraffic streams Gbps of load from node Src to node Dst on
	// Class between At and Until (Until 0 = until the bound run stops),
	// contending max-min fairly with the training flows.
	BackgroundTraffic Kind = "background_traffic"
	// JoinNodes adds Count nodes to cluster Cluster at time At. A running
	// simulation cannot use them (a training job does not elastically
	// resize mid-iteration); the event exists for the replanning path,
	// where the effective topology grows.
	JoinNodes Kind = "join_nodes"

	// Delay adds DelayMs of latency to node Node's Class links in the
	// scripted Direction(s) from At until Until (0 = rest of the run).
	Delay Kind = "delay"
	// Jitter adds a random extra latency per flow, drawn from Dist
	// (uniform/normal/pareto) scaled by JitterMs, between At and Until.
	// Draws come from the scenario-owned seeded PRNG (Scenario.Seed), so
	// replays of the same timeline are bit-identical.
	Jitter Kind = "jitter"
	// Loss drops Pct% of packets on node Node's Class links: retransmits
	// consume wire capacity without delivering goodput, so the link's
	// efficiency is multiplied by 1-Pct/100 between At and Until.
	Loss Kind = "loss"
	// Corrupt mangles Pct% of packets. In a fluid model a corrupted
	// packet and a lost packet cost the same — one retransmit — so
	// corrupt folds into the efficiency term exactly like Loss and
	// exists as its own kind only for scenario readability.
	Corrupt Kind = "corrupt"
	// FlapLink cycles node Node's Class links down (DownMs at residual
	// capacity) and up (UpMs restored), starting at At and ending at
	// Until (required: an unbounded flap would keep the engine alive
	// forever).
	FlapLink Kind = "flap_link"
	// Partition cuts the inter-cluster trunk between Cluster and Peer to
	// the residual trickle from At until Until (0 = rest of the run).
	// Binding a partition to a fabric without a trunk between the pair
	// is an error: there is no link to cut.
	Partition Kind = "partition"
	// Straggler persistently derates node Node's RDMA and Ethernet links
	// by Factor — the aging-NIC slow node of the paper's motivating
	// clusters. Cleared by RestoreNode.
	Straggler Kind = "straggler"
	// FailCluster fails every node of Cluster at At — the correlated
	// whole-switch blast radius. Permanent for the timeline: RestoreNode
	// does not resurrect a failed cluster.
	FailCluster Kind = "fail_cluster"
)

// Class names a NIC class in event JSON.
type Class string

// Class values; the empty string selects a per-kind default (RDMA for
// degrade/fail/restore, Ether for background traffic).
const (
	ClassRDMA  Class = "RDMA"
	ClassEther Class = "Ether"
	ClassIntra Class = "Intra"
)

// NetClass resolves the class name for consumers outside the package
// (the fleet scheduler folds degrade events itself), defaulting the
// empty string to RDMA like degrade_nic does.
func (c Class) NetClass() (netsim.Class, error) { return c.netClass(netsim.RDMA) }

// netClass resolves the JSON name to the netsim class, tolerating common
// spellings. def is the per-kind default for the empty string.
func (c Class) netClass(def netsim.Class) (netsim.Class, error) {
	switch c {
	case "":
		return def, nil
	case ClassRDMA, "rdma":
		return netsim.RDMA, nil
	case ClassEther, "ether", "Ethernet", "ethernet", "Eth", "eth":
		return netsim.Ether, nil
	case ClassIntra, "intra":
		return netsim.Intra, nil
	default:
		return 0, fmt.Errorf("scenario: unknown NIC class %q", string(c))
	}
}

// Event is one scripted occurrence. Fields beyond Kind and At apply per
// kind; unused fields must stay zero.
type Event struct {
	Kind Kind    `json:"kind"`
	At   float64 `json:"at"` // simulated seconds from iteration start

	// Node targets degrade_nic / fail_node / restore_node (global index).
	Node int `json:"node,omitempty"`
	// Class selects the link class for degrade_nic and
	// background_traffic.
	Class Class `json:"class,omitempty"`
	// Factor is the degrade_nic capacity multiplier, in (0, 1].
	Factor float64 `json:"factor,omitempty"`

	// Src/Dst/Gbps/Until shape background_traffic.
	Src   int     `json:"src,omitempty"`
	Dst   int     `json:"dst,omitempty"`
	Gbps  float64 `json:"gbps,omitempty"` // 0 = greedy (uncapped)
	Until float64 `json:"until,omitempty"`

	// Cluster/Count shape join_nodes; Cluster also names fail_cluster's
	// target and partition's first side.
	Cluster int `json:"cluster,omitempty"`
	Count   int `json:"count,omitempty"`

	// DelayMs/JitterMs/Dist/Pct/Direction shape the packet impairments
	// (delay, jitter, loss, corrupt); Until bounds them like background
	// traffic (0 = rest of the run).
	DelayMs   float64 `json:"delay_ms,omitempty"`
	JitterMs  float64 `json:"jitter_ms,omitempty"`
	Dist      string  `json:"dist,omitempty"` // uniform (default), normal, pareto
	Pct       float64 `json:"pct,omitempty"`
	Direction string  `json:"direction,omitempty"` // both (default), out, in

	// DownMs/UpMs shape flap_link's duty cycle.
	DownMs float64 `json:"down_ms,omitempty"`
	UpMs   float64 `json:"up_ms,omitempty"`

	// Peer is partition's second cluster.
	Peer int `json:"peer,omitempty"`
}

// Scenario is a named timeline of events. The zero value is the empty
// scenario, a guaranteed no-op.
type Scenario struct {
	Name   string  `json:"name,omitempty"`
	Events []Event `json:"events,omitempty"`
	// Seed feeds the jitter PRNG so replays of the same timeline are
	// bit-identical; 0 selects the fixed default seed. The PRNG is drawn
	// only when jitter is actually installed, so scenarios without
	// jitter events stay bit-identical across seeds.
	Seed int64 `json:"seed,omitempty"`
}

// Empty reports whether the scenario schedules nothing.
func (s *Scenario) Empty() bool { return s == nil || len(s.Events) == 0 }

// Clone returns a deep copy (nil stays nil). Events are plain values, so
// cloning the slice severs every alias: mutating the original after the
// copy cannot reach the clone, and vice versa. Holders of long-lived
// scenario state (the fleet manager, the operator journal) clone on the
// way in and out so a caller appending to Events can never mutate
// checkpointed replay state behind their backs.
func (s *Scenario) Clone() *Scenario {
	if s == nil {
		return nil
	}
	c := *s
	c.Events = append([]Event(nil), s.Events...)
	return &c
}

// String renders a short label for reports: the name, or an event count.
func (s *Scenario) String() string {
	if s.Empty() {
		return ""
	}
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%d event(s)", len(s.Events))
}

// badTime reports whether t is unusable as a simulated instant.
func badTime(t float64) bool { return t < 0 || math.IsNaN(t) || math.IsInf(t, 0) }

// badDur reports whether d is unusable as a strictly positive duration.
func badDur(d float64) bool { return d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) }

// maxFlapCycles bounds how many down/up edges one flap_link event may
// schedule, so a pathological timeline (microsecond cycles over hours)
// cannot balloon the event queue at Bind time.
const maxFlapCycles = 10000

// dirs resolves the Direction field of an impairment event. The empty
// string and "both" select both sides.
func (ev Event) dirs() (out, in bool, err error) {
	switch ev.Direction {
	case "", "both":
		return true, true, nil
	case "out", "egress":
		return true, false, nil
	case "in", "ingress":
		return false, true, nil
	}
	return false, false, fmt.Errorf("%s: unknown direction %q", ev.Kind, ev.Direction)
}

// validUntil checks the shared optional-deadline rule: 0 means "rest of
// the run", anything else must be a good time after At.
func (ev Event) validUntil() error {
	if ev.Until != 0 && (badTime(ev.Until) || ev.Until <= ev.At) {
		return fmt.Errorf("%s: until %v not after start %v", ev.Kind, ev.Until, ev.At)
	}
	return nil
}

// Validate checks the structural invariants every consumer relies on:
// known kinds, finite non-negative times, factors in (0, 1], coherent
// per-kind fields. Node/cluster bounds need a topology; see ValidateFor.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
	}
	return nil
}

func (ev Event) validate() error {
	if badTime(ev.At) {
		return fmt.Errorf("%s at bad time %v", ev.Kind, ev.At)
	}
	switch ev.Kind {
	case DegradeNIC:
		if ev.Node < 0 {
			return fmt.Errorf("degrade_nic: negative node %d", ev.Node)
		}
		if !(ev.Factor > 0 && ev.Factor <= 1) {
			return fmt.Errorf("degrade_nic: factor %v outside (0,1]", ev.Factor)
		}
		if _, err := ev.Class.netClass(netsim.RDMA); err != nil {
			return err
		}
	case FailNode, RestoreNode:
		if ev.Node < 0 {
			return fmt.Errorf("%s: negative node %d", ev.Kind, ev.Node)
		}
	case BackgroundTraffic:
		if ev.Src < 0 || ev.Dst < 0 {
			return fmt.Errorf("background_traffic: negative node index")
		}
		if ev.Src == ev.Dst {
			return fmt.Errorf("background_traffic: src and dst are both node %d", ev.Src)
		}
		if ev.Gbps < 0 || math.IsNaN(ev.Gbps) || math.IsInf(ev.Gbps, 0) {
			return fmt.Errorf("background_traffic: bad rate %v Gbps", ev.Gbps)
		}
		if ev.Until != 0 && (badTime(ev.Until) || ev.Until <= ev.At) {
			return fmt.Errorf("background_traffic: until %v not after start %v", ev.Until, ev.At)
		}
		if _, err := ev.Class.netClass(netsim.Ether); err != nil {
			return err
		}
	case JoinNodes:
		if ev.Cluster < 0 {
			return fmt.Errorf("join_nodes: negative cluster %d", ev.Cluster)
		}
		if ev.Count < 1 {
			return fmt.Errorf("join_nodes: count %d < 1", ev.Count)
		}
	case Delay, Jitter, Loss, Corrupt:
		if ev.Node < 0 {
			return fmt.Errorf("%s: negative node %d", ev.Kind, ev.Node)
		}
		if _, err := ev.Class.netClass(netsim.Ether); err != nil {
			return err
		}
		if _, _, err := ev.dirs(); err != nil {
			return err
		}
		if err := ev.validUntil(); err != nil {
			return err
		}
		switch ev.Kind {
		case Delay:
			if badDur(ev.DelayMs) {
				return fmt.Errorf("delay: bad delay_ms %v", ev.DelayMs)
			}
		case Jitter:
			if badDur(ev.JitterMs) {
				return fmt.Errorf("jitter: bad jitter_ms %v", ev.JitterMs)
			}
			if !netsim.KnownDist(netsim.Dist(ev.Dist)) {
				return fmt.Errorf("jitter: unknown distribution %q", ev.Dist)
			}
		default: // Loss, Corrupt
			if !(ev.Pct > 0 && ev.Pct < 100) || math.IsNaN(ev.Pct) {
				return fmt.Errorf("%s: pct %v outside (0,100)", ev.Kind, ev.Pct)
			}
		}
	case FlapLink:
		if ev.Node < 0 {
			return fmt.Errorf("flap_link: negative node %d", ev.Node)
		}
		if _, err := ev.Class.netClass(netsim.RDMA); err != nil {
			return err
		}
		if badDur(ev.DownMs) || badDur(ev.UpMs) {
			return fmt.Errorf("flap_link: bad duty cycle down=%vms up=%vms", ev.DownMs, ev.UpMs)
		}
		if badTime(ev.Until) || ev.Until <= ev.At {
			return fmt.Errorf("flap_link: until %v not after start %v (unbounded flapping never lets the run end)", ev.Until, ev.At)
		}
		if cycle := (ev.DownMs + ev.UpMs) / 1e3; (ev.Until-ev.At)/cycle > maxFlapCycles {
			return fmt.Errorf("flap_link: %v cycles exceed the %d-cycle cap", (ev.Until-ev.At)/cycle, maxFlapCycles)
		}
	case Partition:
		if ev.Cluster < 0 || ev.Peer < 0 {
			return fmt.Errorf("partition: negative cluster index")
		}
		if ev.Cluster == ev.Peer {
			return fmt.Errorf("partition: cluster %d cannot partition from itself", ev.Cluster)
		}
		if err := ev.validUntil(); err != nil {
			return err
		}
	case Straggler:
		if ev.Node < 0 {
			return fmt.Errorf("straggler: negative node %d", ev.Node)
		}
		if !(ev.Factor > 0 && ev.Factor <= 1) {
			return fmt.Errorf("straggler: factor %v outside (0,1]", ev.Factor)
		}
	case FailCluster:
		if ev.Cluster < 0 {
			return fmt.Errorf("fail_cluster: negative cluster %d", ev.Cluster)
		}
	default:
		return fmt.Errorf("unknown kind %q", string(ev.Kind))
	}
	return nil
}

// ordered returns the events sorted by (At, original index): the order
// both Bind and StateAt apply them in, so the fabric path and the
// replanning path never disagree about simultaneous events.
func (s *Scenario) ordered() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Ordered returns a copy of the events in application order — (At,
// declaration index), the exact order Bind and StateAt use — for
// consumers that replay the timeline themselves (the fleet scheduler).
func (s *Scenario) Ordered() []Event {
	if s.Empty() {
		return nil
	}
	return s.ordered()
}

// Load parses a scenario from JSON, rejecting unknown fields, and
// validates it.
func Load(r io.Reader) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Trailing JSON means a concatenated or truncated-then-mended file;
	// silently taking the first value would drop the user's real events.
	// Token reads io.EOF only when whitespace alone follows.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the scenario object")
		}
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses a scenario file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
