package gen

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// Fleet sizes: the fleet has 8 InfiniBand, 8 RoCE and 8 Ethernet nodes;
// the initial trace holds fleetInitialJobs jobs, and the live set never
// exceeds fleetMaxLive (the daemon's per-fleet limit is 64).
const (
	fleetInitialJobs = 48
	fleetMaxLive     = 60
	fleetRecent      = 8
	fleetMaxImpaired = 4
)

// FleetClusters is the generated fleet's layout.
var FleetClusters = []Cluster{{NIC: "InfiniBand", Nodes: 8}, {NIC: "RoCE", Nodes: 8}, {NIC: "Ethernet", Nodes: 8}}

// fleetBlock is the kind mix of every 20 consecutive mutations, shuffled
// per block: 8 submits, 5 cancels, and 7 scenario edits (3 NIC
// degradations, 2 node failures, 2 restores). Drawing kinds in blocks
// rather than one by one keeps every run's mix exactly 40/25/35.
var fleetBlock = []string{
	"submit", "submit", "submit", "submit", "submit", "submit", "submit", "submit",
	"cancel", "cancel", "cancel", "cancel", "cancel",
	"degrade_nic", "degrade_nic", "degrade_nic", "fail_node", "fail_node", "restore_node", "restore_node",
}

// FleetJob is one generated training job.
type FleetJob struct {
	ID         string
	Submit     float64 // virtual seconds
	GPUs       int
	Iterations int
	Group      int
}

// Mutation is one change to a live fleet: a job submitted or cancelled,
// or a scenario event (fail_node, restore_node, degrade_nic) at At.
type Mutation struct {
	Kind   string
	Job    FleetJob // submit
	ID     string   // cancel
	Node   int
	Factor float64
	At     float64
}

// Fleet generates the fleet-churn inputs: the initial jobs, then an
// endless seeded stream of mutations. The stream tracks the live set and
// the node states itself, so every mutation is valid against the fleet
// it reaches. A cancel picks one of the fleetRecent newest live jobs,
// the work a user still waits on; a submit into a full fleet retires the
// oldest job instead. Failures and degradations hit healthy nodes only,
// at most fleetMaxImpaired at a time — an edit that would impair one
// more restores one instead — and a restore returns a failed node if
// there is one, else a degraded one.
type Fleet struct {
	Initial  []FleetJob
	r        *rand.Rand
	clock    float64
	nextID   int
	live     []string
	failed   []int
	degraded []int
	block    []string
	jobDeck  [][2]int // (nodes, group) of the next jobs
}

// NewFleet seeds the inputs of one fleet; index separates the fleets
// drawn from one seed.
func NewFleet(seed uint64, index int) *Fleet {
	f := &Fleet{r: rand.New(rand.NewPCG(seed, saltFleet<<32|uint64(index)))}
	for range fleetInitialJobs {
		f.Initial = append(f.Initial, f.job())
	}
	return f
}

// job draws the next job, submitted a seeded gap after the previous
// event, for 1–5 iterations. Demand (1 or 2 nodes) and parameter group
// come from a shuffled deck holding every pairing once, so every eight
// jobs bring each group twice and each size four times.
func (f *Fleet) job() FleetJob {
	if len(f.jobDeck) == 0 {
		for nodes := 1; nodes <= 2; nodes++ {
			for g := 1; g <= 4; g++ {
				f.jobDeck = append(f.jobDeck, [2]int{nodes, g})
			}
		}
		f.r.Shuffle(len(f.jobDeck), func(i, j int) { f.jobDeck[i], f.jobDeck[j] = f.jobDeck[j], f.jobDeck[i] })
	}
	kind := f.jobDeck[0]
	f.jobDeck = f.jobDeck[1:]
	f.clock = round3(f.clock + f.r.ExpFloat64()*20)
	j := FleetJob{
		ID:         fmt.Sprintf("j%03d", f.nextID),
		Submit:     f.clock,
		GPUs:       gpusPerNode * kind[0],
		Iterations: 1 + f.r.IntN(5),
		Group:      kind[1],
	}
	f.nextID++
	f.live = append(f.live, j.ID)
	return j
}

// cancel removes the i-th oldest live job.
func (f *Fleet) cancel(i int) Mutation {
	id := f.live[i]
	f.live = append(f.live[:i], f.live[i+1:]...)
	return Mutation{Kind: "cancel", ID: id}
}

// take removes and returns a random element of *set.
func (f *Fleet) take(set *[]int) int {
	i := f.r.IntN(len(*set))
	n := (*set)[i]
	*set = append((*set)[:i], (*set)[i+1:]...)
	return n
}

// Next returns the next mutation.
func (f *Fleet) Next() Mutation {
	if len(f.block) == 0 {
		f.block = append([]string(nil), fleetBlock...)
		f.r.Shuffle(len(f.block), func(i, j int) { f.block[i], f.block[j] = f.block[j], f.block[i] })
	}
	kind := f.block[0]
	f.block = f.block[1:]
	switch {
	case kind == "submit" && len(f.live) >= fleetMaxLive:
		return f.cancel(0)
	case kind == "submit", kind == "cancel" && len(f.live) == 0:
		return Mutation{Kind: "submit", Job: f.job()}
	case kind == "cancel":
		return f.cancel(len(f.live) - 1 - f.r.IntN(min(fleetRecent, len(f.live))))
	}
	f.clock = round3(f.clock + f.r.ExpFloat64()*10)
	nodes := 0
	for _, c := range FleetClusters {
		nodes += c.Nodes
	}
	m := Mutation{Kind: kind, At: f.clock}
	if kind != "restore_node" && len(f.failed)+len(f.degraded) >= fleetMaxImpaired {
		m.Kind = "restore_node"
	}
	switch m.Kind {
	case "restore_node":
		switch {
		case len(f.failed) > 0:
			m.Node = f.take(&f.failed)
		case len(f.degraded) > 0:
			m.Node = f.take(&f.degraded)
		default:
			m.Node = f.r.IntN(nodes)
		}
	default:
		m.Node = f.r.IntN(nodes)
		for slices.Contains(f.failed, m.Node) || slices.Contains(f.degraded, m.Node) {
			m.Node = (m.Node + 1) % nodes
		}
		if m.Kind == "fail_node" {
			f.failed = append(f.failed, m.Node)
		} else {
			m.Factor = 0.5
			f.degraded = append(f.degraded, m.Node)
		}
	}
	return m
}
