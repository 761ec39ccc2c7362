package trainer

import (
	"errors"
	"fmt"
	"math"

	"holmes/internal/parallel"
	"holmes/internal/topology"
)

// ErrAboveBound reports a simulation stopped by Config.AbortAbove: the
// iteration provably takes longer than the caller's incumbent, and its
// exact time was not worth computing. Branch-and-bound callers treat it
// as "candidate lost", never as a planning failure.
var ErrAboveBound = errors.New("trainer: iteration time exceeds the abort bound")

// LowerBound returns a cheap analytic lower bound on IterSeconds for the
// configuration: compute-only pipeline time plus best-case fluid-model
// communication. It builds no world and runs no events — every term is
// closed-form over the topology's link capacities — so it costs
// microseconds where Simulate costs milliseconds, which is what lets the
// joint (t, p) search order and prune candidates before simulating them
// (core.Planner.SearchPlan).
//
// Admissibility (bound ≤ simulated IterSeconds, property-tested in
// bound_test.go) rests on three facts about the simulator:
//
//  1. A pipeline stage executes its 2m operations serially (the
//     executor's busy flag), and each forward/backward of a stage holding
//     ℓ layers takes at least ℓ·(layer FLOPs)/effFLOPS plus 2ℓ tensor-
//     parallel ring all-reduces — so any stage's completion is at least
//     m times its per-micro work, and micro-batch 0 cannot reach the
//     last stage before every earlier stage's forward plus one
//     activation hop each.
//  2. No netsim flow ever runs faster than the fastest link in the
//     fabric, and every flow completes no earlier than its class
//     latency — so each communication term may assume the best link and
//     the smallest latency and remain a lower bound.
//  3. The iteration cannot end before some data-parallel group finishes
//     its final gradient reduce-scatter bucket, the optimizer step, and
//     the parameter all-gather — all of which start only after that
//     group's stage completes its last backward. A DP group needs d·t
//     GPUs of one stage inside a node to avoid the network entirely, so
//     when d·t exceeds the per-node GPU count its fluid ring has
//     inter-node edges carrying the full per-edge traffic, and the
//     collective is bounded by the fastest NIC rather than NVLink.
//
// The bound is the max of two chains: the micro-batch-0 fill chain
// through the last stage (which also serializes all m micro-batches and
// the vocabulary projection), and the bottleneck-stage chain (the stage
// with the most layers — at least ⌈L/p⌉ under any partition — must
// process all m micro-batches serially). Both end with the minimal DP
// tail. Partition is not yet known when the bound is evaluated, so each
// chain is minimized over all valid partitions.
func LowerBound(cfg Config) (float64, error) {
	if cfg.Topo == nil {
		return 0, fmt.Errorf("trainer: nil topology")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return 0, err
	}
	opt := DefaultOptions(cfg.Framework)
	if cfg.Opt != nil {
		opt = *cfg.Opt
	}
	calib := DefaultCalibration()

	n := cfg.Topo.NumDevices()
	t, p := cfg.TensorSize, cfg.PipelineSize
	deg, err := parallel.TileDegrees(n, t, p)
	if err != nil {
		return 0, err
	}
	if cfg.Spec.Layers < p {
		return 0, fmt.Errorf("trainer: %d layers cannot fill %d pipeline stages", cfg.Spec.Layers, p)
	}
	m, err := cfg.Spec.MicroBatches(deg.D)
	if err != nil {
		return 0, err
	}

	effFLOPS := calib.PeakTFLOPS * 1e12 * calib.ComputeMFU
	layerWork := cfg.Spec.FLOPsForLayers(1, cfg.Spec.MicroBatch) / float64(t)
	vocabTime := (cfg.Spec.FLOPsPerIteration() - cfg.Spec.FLOPsForLayers(cfg.Spec.Layers, cfg.Spec.GlobalBatch)) /
		float64(cfg.Spec.GlobalBatch) * float64(cfg.Spec.MicroBatch) / float64(t) / effFLOPS

	// Fastest-case tensor-parallel ring all-reduce: the fastest intra-node
	// interconnect present anywhere in the topology. Zero at t = 1, like
	// the simulator's tpRingSeconds.
	tpRing := 0.0
	if t > 1 {
		bps := bestIntraBps(cfg.Topo, calib)
		bytes := cfg.Spec.ActivationMessageBytes()
		tpRing = 2*float64(t-1)/float64(t)*bytes/bps + 2*float64(t-1)*calib.Net.IntraLatency
	}
	// Forward / forward+backward time of one layer for one micro-batch
	// (tf = work/3 + 2 rings, tb = 2·work/3 + 2 rings).
	perLayerF := layerWork/3/effFLOPS + 2*tpRing
	perLayer := layerWork/effFLOPS + 4*tpRing

	bw := bestLinkBps(cfg.Topo, calib)
	hopMin := minLatency(calib) + cfg.Spec.ActivationMessageBytes()/float64(t)/bw

	// Bandwidth available to the DP collectives. A data-parallel group is
	// d ranks at one (stage, tensor-slot); hosting it inside a single node
	// needs d·t GPUs of one stage there, so when d·t exceeds the per-node
	// GPU count every DP group spans nodes — its ring has inter-node
	// edges, each carrying the collective's full per-edge traffic, and no
	// flow on such an edge can beat the fastest NIC in the fabric. Only
	// then may the tail drop the (much faster) intra-node rate.
	dpBw := bw
	if deg.D*t > cfg.Topo.GPUsPerNode {
		dpBw = bestInterBps(cfg.Topo, calib)
	}

	// Minimal DP tail after a stage holding ℓ layers finishes its last
	// backward: final reduce-scatter bucket + optimizer step + parameter
	// all-gather. Single-rank groups skip the collectives but still pay
	// the optimizer step (the simulator's collectives fire immediately at
	// d = 1 but afterRS always waits OptimizerSeconds).
	tail := func(layers int) float64 {
		out := calib.OptimizerSeconds
		if deg.D > 1 {
			params := float64(cfg.Spec.ParamsPerLayer()) * float64(layers) / float64(t) * opt.ExtraDPTraffic
			grad := params * calib.GradBytesPerParam
			if opt.OverlappedOptimizer {
				grad /= float64(m) // only the last bucket is forced past the last backward
			}
			param := params * calib.ParamBytesPerParam
			out += float64(deg.D-1) / float64(deg.D) * (grad + param) / dpBw
		}
		return out
	}

	// Chain 1: micro-batch 0 must traverse every earlier stage's forward
	// and one activation hop per boundary before the last stage starts;
	// the last stage then serializes all m micro-batches (forward and
	// backward, vocabulary projection included). Minimizing over
	// partitions puts one layer on the last stage (all L at p = 1).
	lastLayers := 1
	if p == 1 {
		lastLayers = cfg.Spec.Layers
	}
	fill := float64(cfg.Spec.Layers-lastLayers)*perLayerF +
		float64(p-1)*hopMin +
		float64(m)*(float64(lastLayers)*perLayer+vocabTime) +
		tail(lastLayers)

	// Chain 2: under any partition some stage holds ≥ ⌈L/p⌉ layers and
	// must run 2m serialized operations on them before its DP tail.
	maxLayers := (cfg.Spec.Layers + p - 1) / p
	bottleneck := float64(m)*float64(maxLayers)*perLayer + tail(maxLayers)

	return math.Max(fill, bottleneck), nil
}

// ThroughputUpperBound converts the iteration-time lower bound into a
// samples/s upper bound — the pruning test of the joint search: a
// candidate whose upper bound cannot beat the incumbent's simulated
// throughput need not be simulated at all.
func ThroughputUpperBound(cfg Config) (float64, error) {
	lb, err := LowerBound(cfg)
	if err != nil {
		return 0, err
	}
	if lb <= 0 {
		return math.Inf(1), nil
	}
	return float64(cfg.Spec.GlobalBatch) / lb, nil
}

// bestIntraBps returns the fastest intra-node interconnect rate present
// in the topology.
func bestIntraBps(topo *topology.Topology, calib Calibration) float64 {
	best := calib.Net.PCIeBytesPerSec
	for _, node := range topo.Nodes() {
		if node.Intra != topology.PCIe {
			return calib.Net.NVLinkBytesPerSec
		}
	}
	return best
}

// bestInterBps returns the highest capacity of any *inter-node* link —
// the ceiling for flows that must leave a node (cross-node DP rings).
func bestInterBps(topo *topology.Topology, calib Calibration) float64 {
	net := calib.Net
	best := 0.0
	for _, node := range topo.Nodes() {
		rdma := node.RDMAGbps() / 8 * 1e9
		switch node.RDMAType() {
		case topology.InfiniBand:
			rdma *= net.IBEff
		case topology.RoCE:
			rdma *= net.RoCEEff
		default:
			rdma *= net.EthEff
		}
		eth := node.EthNIC.Gbps / 8 * 1e9 * net.EthEff
		if rdma > best {
			best = rdma
		}
		if eth > best {
			best = eth
		}
	}
	if best <= 0 {
		best = net.NVLinkBytesPerSec // degenerate topology: stay admissible
	}
	return best
}

// bestLinkBps returns the highest capacity of any fabric link the
// topology produces — no flow can ever exceed it (max-min fair shares
// are capped by each link on the path).
func bestLinkBps(topo *topology.Topology, calib Calibration) float64 {
	net := calib.Net
	best := 0.0
	for _, node := range topo.Nodes() {
		rdma := node.RDMAGbps() / 8 * 1e9
		switch node.RDMAType() {
		case topology.InfiniBand:
			rdma *= net.IBEff
		case topology.RoCE:
			rdma *= net.RoCEEff
		default:
			rdma *= net.EthEff
		}
		eth := node.EthNIC.Gbps / 8 * 1e9 * net.EthEff
		intra := net.NVLinkBytesPerSec
		if node.Intra == topology.PCIe {
			intra = net.PCIeBytesPerSec
		}
		for _, bps := range []float64{rdma, eth, intra} {
			if bps > best {
				best = bps
			}
		}
	}
	if best <= 0 {
		best = net.NVLinkBytesPerSec
	}
	return best
}

// minLatency returns the smallest per-flow latency any class carries.
func minLatency(calib Calibration) float64 {
	lat := calib.Net.IntraLatency
	for _, l := range []float64{calib.Net.IBLatency, calib.Net.RoCELatency, calib.Net.EthLatency} {
		if l < lat {
			lat = l
		}
	}
	return lat
}
