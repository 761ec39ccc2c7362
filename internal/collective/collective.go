// Package collective implements the communication collectives that
// distributed LLM training is built from — ring all-reduce,
// reduce-scatter, all-gather, broadcast, and point-to-point send/receive —
// in two complementary forms:
//
//   - Analytic α–β cost models (Cost*), used by the Holmes planner to
//     compare candidate schedules quickly. These follow Patarasuk & Yuan's
//     bandwidth-optimal ring analysis cited by the paper.
//   - Discrete-event executions (the stepped Run* rings and the fluid
//     Ring), which issue real flows on the netsim fabric so that
//     contention between concurrent groups (e.g. many data-parallel rings
//     sharing one NIC) emerges naturally.
//
// The numerically real implementations (moving actual float32 data between
// goroutine ranks) live in internal/runtime; they share the semantics
// tested here.
package collective

import (
	"fmt"
	"sort"

	"holmes/internal/netsim"
	"holmes/internal/sim"
)

// Op identifies a collective operation, mirroring NCCL's vocabulary.
type Op int

const (
	AllReduce Op = iota
	ReduceScatter
	AllGather
	Broadcast
	SendRecv
)

// String names the op as NCCL does.
func (o Op) String() string {
	switch o {
	case AllReduce:
		return "all-reduce"
	case ReduceScatter:
		return "reduce-scatter"
	case AllGather:
		return "all-gather"
	case Broadcast:
		return "broadcast"
	case SendRecv:
		return "send-recv"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ring orders the group's ranks; rank order keeps same-node neighbours
// adjacent so that most ring edges ride NVLink and only node-boundary
// edges touch the NIC, as NCCL's ring construction does.
func ring(ranks []int) []int {
	r := append([]int(nil), ranks...)
	sort.Ints(r)
	return r
}

// validate rejects degenerate groups.
func validate(ranks []int) {
	if len(ranks) == 0 {
		panic("collective: empty group")
	}
	seen := make(map[int]struct{}, len(ranks))
	for _, r := range ranks {
		if _, dup := seen[r]; dup {
			panic(fmt.Sprintf("collective: duplicate rank %d in group", r))
		}
		seen[r] = struct{}{}
	}
}

// maxEdge returns the slowest hop time for moving chunk bytes between
// consecutive ring members.
func maxEdge(fab *netsim.Fabric, r []int, chunk float64, class netsim.Class) float64 {
	worst := 0.0
	for i := range r {
		src, dst := r[i], r[(i+1)%len(r)]
		if t := fab.TransferTime(src, dst, chunk, class); t > worst {
			worst = t
		}
	}
	return worst
}

// CostAllReduce estimates a ring all-reduce of the given payload: 2(n−1)
// steps each moving bytes/n per rank; every step is gated by the slowest
// edge of the ring.
func CostAllReduce(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	validate(ranks)
	n := len(ranks)
	if n == 1 {
		return 0
	}
	r := ring(ranks)
	chunk := bytes / float64(n)
	return float64(2*(n-1)) * maxEdge(fab, r, chunk, class)
}

// CostReduceScatter estimates the reduce-scatter half of the ring: (n−1)
// steps of bytes/n. This is the paper's "grads-reduce-scatter" operation
// (Figure 4).
func CostReduceScatter(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	validate(ranks)
	n := len(ranks)
	if n == 1 {
		return 0
	}
	r := ring(ranks)
	chunk := bytes / float64(n)
	return float64(n-1) * maxEdge(fab, r, chunk, class)
}

// CostAllGather estimates the all-gather half of the ring: (n−1) steps of
// bytes/n.
func CostAllGather(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	return CostReduceScatter(fab, ranks, bytes, class) // identical step structure
}

// CostBroadcast estimates a pipelined ring broadcast from the first rank:
// the payload is cut into segments that stream around the ring, so for
// large payloads the cost approaches one traversal of the slowest edge.
func CostBroadcast(fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class) float64 {
	validate(ranks)
	n := len(ranks)
	if n == 1 {
		return 0
	}
	r := ring(ranks)
	const segments = 8
	seg := bytes / segments
	edge := maxEdge(fab, r, seg, class)
	// Pipeline fill (n-1 hops) plus draining the remaining segments.
	return float64(n-1)*edge + float64(segments-1)*edge
}

// CostSendRecv estimates a point-to-point transfer (pipeline parallelism's
// activation/gradient exchange).
func CostSendRecv(fab *netsim.Fabric, src, dst int, bytes float64, class netsim.Class) float64 {
	return fab.TransferTime(src, dst, bytes, class)
}

// Cost dispatches on op. For SendRecv the group must hold exactly the
// {src, dst} pair in order.
func Cost(fab *netsim.Fabric, op Op, ranks []int, bytes float64, class netsim.Class) float64 {
	switch op {
	case AllReduce:
		return CostAllReduce(fab, ranks, bytes, class)
	case ReduceScatter:
		return CostReduceScatter(fab, ranks, bytes, class)
	case AllGather:
		return CostAllGather(fab, ranks, bytes, class)
	case Broadcast:
		return CostBroadcast(fab, ranks, bytes, class)
	case SendRecv:
		if len(ranks) != 2 {
			panic("collective: SendRecv needs exactly two ranks")
		}
		return CostSendRecv(fab, ranks[0], ranks[1], bytes, class)
	default:
		panic(fmt.Sprintf("collective: unknown op %v", op))
	}
}

// RunRing executes `steps` ring rounds on the fabric, each rank sending
// chunk bytes to its successor, and invokes onDone when the final round
// completes. It is the DES building block for RunAllReduce and friends.
func RunRing(eng *sim.Engine, fab *netsim.Fabric, ranks []int, steps int, chunk float64, class netsim.Class, onDone func()) {
	validate(ranks)
	r := ring(ranks)
	n := len(r)
	if n == 1 || steps == 0 {
		eng.After(0, onDone)
		return
	}
	var round func(s int)
	round = func(s int) {
		if s == steps {
			onDone()
			return
		}
		var wg sim.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			src, dst := r[i], r[(i+1)%n]
			fab.StartFlow(src, dst, chunk, class, wg.Done)
		}
		wg.OnZero(func() { round(s + 1) })
	}
	round(0)
}

// RunAllReduce executes a ring all-reduce as 2(n−1) DES rounds.
func RunAllReduce(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	chunk := 0.0
	if n > 0 {
		chunk = bytes / float64(n)
	}
	RunRing(eng, fab, ranks, 2*(n-1), chunk, class, onDone)
}

// RunReduceScatter executes the reduce-scatter half: (n−1) rounds.
func RunReduceScatter(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	n := len(ranks)
	chunk := 0.0
	if n > 0 {
		chunk = bytes / float64(n)
	}
	RunRing(eng, fab, ranks, n-1, chunk, class, onDone)
}

// RunAllGather executes the all-gather half: (n−1) rounds.
func RunAllGather(eng *sim.Engine, fab *netsim.Fabric, ranks []int, bytes float64, class netsim.Class, onDone func()) {
	RunReduceScatter(eng, fab, ranks, bytes, class, onDone)
}

// RunSendRecv executes one point-to-point transfer.
func RunSendRecv(eng *sim.Engine, fab *netsim.Fabric, src, dst int, bytes float64, class netsim.Class, onDone func()) {
	fab.StartFlow(src, dst, bytes, class, onDone)
}
