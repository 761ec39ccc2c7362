package scenario

import (
	"math"
	"math/rand"
	"testing"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

// Differential harness: the incremental netsim rebalancer must stay
// observationally equivalent to the FullRecompute oracle while scenario
// events — capacity degradation, node failure, restoration, background
// traffic — fire in the middle of a random flow schedule. This extends
// netsim's TestIncrementalMatchesFullRecomputeOracle (which hand-rolls
// one degrade/restore pair) to the whole scenario vocabulary.

type probeFlow struct {
	at       float64
	src, dst int
	bytes    float64
	class    netsim.Class
}

func genProbes(rng *rand.Rand, n, ranks int) []probeFlow {
	classes := []netsim.Class{netsim.Intra, netsim.RDMA, netsim.Ether}
	fs := make([]probeFlow, n)
	for i := range fs {
		src := rng.Intn(ranks)
		dst := rng.Intn(ranks)
		for dst == src {
			dst = (dst + 1) % ranks
		}
		bytes := 0.0
		if rng.Intn(12) > 0 {
			bytes = math.Pow(10, 4+5*rng.Float64()) // 10 KB .. 1 GB
		}
		fs[i] = probeFlow{
			at:    rng.Float64() * 0.02,
			src:   src,
			dst:   dst,
			bytes: bytes,
			class: classes[rng.Intn(len(classes))],
		}
	}
	return fs
}

// genScenario scripts a random timeline overlapping the probe window:
// degrades, failures, restores, a bounded background stream, and the
// impairment vocabulary — delays, jitter, loss/corrupt derates, flapping
// links, stragglers, cluster failures, and (when the fabric has a trunk
// to cut) partitions.
func genScenario(rng *rand.Rand, topo *topology.Topology, trunked bool) *Scenario {
	nodes := topo.NumNodes()
	var evs []Event
	nEvents := 1 + rng.Intn(7)
	for i := 0; i < nEvents; i++ {
		at := rng.Float64() * 0.02
		node := rng.Intn(nodes)
		switch rng.Intn(11) {
		case 0:
			class := []Class{ClassRDMA, ClassEther, ClassIntra}[rng.Intn(3)]
			evs = append(evs, Event{
				Kind: DegradeNIC, At: at, Node: node,
				Class: class, Factor: 0.05 + 0.9*rng.Float64(),
			})
		case 1:
			evs = append(evs, Event{Kind: FailNode, At: at, Node: node})
		case 2:
			evs = append(evs, Event{Kind: RestoreNode, At: at + 0.01, Node: node})
		case 3:
			evs = append(evs, Event{
				Kind: Delay, At: at, Node: node, DelayMs: 0.1 + 5*rng.Float64(),
				Direction: []string{"", "out", "in", "both"}[rng.Intn(4)],
				Until:     at + 0.005 + 0.02*rng.Float64(),
			})
		case 4:
			evs = append(evs, Event{
				Kind: Jitter, At: at, Node: node, JitterMs: 0.05 + 2*rng.Float64(),
				Dist: []string{"uniform", "normal", "pareto"}[rng.Intn(3)],
			})
		case 5:
			kind := Loss
			if rng.Intn(2) == 0 {
				kind = Corrupt
			}
			evs = append(evs, Event{
				Kind: kind, At: at, Node: node, Pct: 1 + 40*rng.Float64(),
				Class: []Class{"", ClassRDMA, ClassEther}[rng.Intn(3)],
				Until: at + 0.005 + 0.02*rng.Float64(),
			})
		case 6:
			evs = append(evs, Event{
				Kind: FlapLink, At: at, Until: at + 0.005 + 0.02*rng.Float64(),
				Node: node, DownMs: 1 + 3*rng.Float64(), UpMs: 1 + 3*rng.Float64(),
			})
		case 7:
			evs = append(evs, Event{
				Kind: Straggler, At: at, Node: node, Factor: 0.1 + 0.9*rng.Float64(),
			})
		case 8:
			evs = append(evs, Event{Kind: FailCluster, At: at, Cluster: rng.Intn(topo.NumClusters())})
		case 9:
			if trunked && topo.NumClusters() > 1 {
				evs = append(evs, Event{
					Kind: Partition, At: at, Cluster: 0, Peer: 1,
					Until: at + 0.005 + 0.02*rng.Float64(),
				})
				break
			}
			evs = append(evs, Event{Kind: RestoreNode, At: at + 0.01, Node: node})
		default:
			dst := (node + 1 + rng.Intn(nodes-1)) % nodes
			evs = append(evs, Event{
				Kind: BackgroundTraffic, At: at, Src: node, Dst: dst,
				Class: ClassEther, Gbps: 1 + 50*rng.Float64(), Until: at + 0.005 + 0.02*rng.Float64(),
			})
		}
	}
	return &Scenario{Name: "fuzzed", Events: evs}
}

// replayUnder runs probes plus the scenario on a fresh fabric and returns
// each probe's completion time.
func replayUnder(t *testing.T, topo *topology.Topology, p netsim.Params, fs []probeFlow, sc *Scenario) []float64 {
	t.Helper()
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, p)
	if _, err := sc.Bind(eng, fab); err != nil {
		t.Fatal(err)
	}
	done := make([]float64, len(fs))
	for i := range fs {
		i, pf := i, fs[i]
		eng.At(pf.at, func() {
			fab.StartFlow(fab.Route(pf.src, pf.dst, pf.class), pf.bytes, func() { done[i] = eng.Now() })
		})
	}
	eng.Run()
	if fab.InFlight() != 0 {
		t.Fatalf("%d flows alive after drain", fab.InFlight())
	}
	return done
}

func timesClose(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12+1e-9*scale
}

func TestScenarioDifferentialIncrementalVsOracle(t *testing.T) {
	topos := map[string]*topology.Topology{
		"hybrid4": topology.HybridEnv(4),
		"eth2":    topology.EthernetEnv(2),
		"roce3":   topology.RoCEEnv(3),
	}
	for name, topo := range topos {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed * 7919))
			p := netsim.DefaultParams()
			if seed%3 == 1 {
				p.EthPerFlowBytesPerSec = 1.5e9
			}
			if seed%4 == 2 {
				p.InterClusterGbps = 20
			}
			fs := genProbes(rng, 10+rng.Intn(50), topo.NumDevices())
			sc := genScenario(rng, topo, p.InterClusterGbps > 0)
			if err := sc.Validate(); err != nil {
				t.Fatalf("%s seed %d: generated invalid scenario: %v", name, seed, err)
			}
			inc := replayUnder(t, topo, p, fs, sc)
			p.FullRecompute = true
			full := replayUnder(t, topo, p, fs, sc)
			for i := range fs {
				if full[i] == 0 || inc[i] == 0 {
					t.Fatalf("%s seed %d flow %d never completed (inc=%v full=%v) under %+v",
						name, seed, i, inc[i], full[i], sc.Events)
				}
				if !timesClose(inc[i], full[i]) {
					t.Fatalf("%s seed %d flow %d (%+v): incremental %.15g vs oracle %.15g under %+v",
						name, seed, i, fs[i], inc[i], full[i], sc.Events)
				}
			}
		}
	}
}
