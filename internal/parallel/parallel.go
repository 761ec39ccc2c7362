// Package parallel constructs the tensor-, pipeline-, and data-parallel
// group matrices of the paper's formalization (§3.1.2, Eq. 1–3). Which
// network each group rides is package comm's decision.
//
// With degrees t (tensor), p (pipeline), d (data) and N = t·p·d devices:
//
//	[TP]_{i,j} = rank_{(i−1)·t + j}                    i ≤ p·d, j ≤ t
//	[PP]_{i,j} = rank_{i + (j−1)·t·d}                  i ≤ t·d, j ≤ p
//	[DP]_{i,j} = rank_{mod(i−1,t) + (⌊(i−1)/t⌋·d + j−1)·t + 1}   i ≤ p·t, j ≤ d
//
// (The code uses 0-based ranks.) Under this numbering pipeline stage j is
// the contiguous rank block [j·t·d, (j+1)·t·d), so with the paper's
// cluster-major global numbering, stages align with clusters — the heart
// of Cross-Cluster Pipeline Parallelism: pipeline groups span clusters
// over Ethernet while each data-parallel group stays inside one cluster
// and can ride its RDMA fabric.
package parallel

import "fmt"

// Degrees bundles the three parallelism degrees.
type Degrees struct {
	T int // tensor parallel size (within a node)
	P int // pipeline parallel size
	D int // data parallel size
}

// TileDegrees validates that tensor degree t and pipeline degree p tile n
// devices exactly and derives the data-parallel degree d = n/(t·p). It is
// the single home of the "do not tile" check the trainer and the planner
// both apply, so their messages and semantics cannot drift.
func TileDegrees(n, t, p int) (Degrees, error) {
	if t <= 0 || p <= 0 || n%(t*p) != 0 {
		return Degrees{}, fmt.Errorf("parallel: degrees t=%d p=%d do not tile %d devices", t, p, n)
	}
	return Degrees{T: t, P: p, D: n / (t * p)}, nil
}

// Validate checks the §2.4 constraints against a world size and node shape.
func (g Degrees) Validate(n, gpusPerNode int) error {
	switch {
	case g.T <= 0 || g.P <= 0 || g.D <= 0:
		return fmt.Errorf("parallel: non-positive degree %+v", g)
	case g.T*g.P*g.D != n:
		return fmt.Errorf("parallel: t·p·d = %d ≠ N = %d", g.T*g.P*g.D, n)
	case g.T > gpusPerNode:
		return fmt.Errorf("parallel: tensor degree %d exceeds GPUs per node %d", g.T, gpusPerNode)
	case gpusPerNode%g.T != 0:
		return fmt.Errorf("parallel: tensor degree %d does not divide GPUs per node %d", g.T, gpusPerNode)
	}
	return nil
}

// Assignment holds the three group matrices for one configuration.
type Assignment struct {
	Degrees
	N int
	// TP has p·d rows of t ranks (same node).
	TP [][]int
	// PP has t·d rows of p ranks (one per stage).
	PP [][]int
	// DP has p·t rows of d ranks (same stage, same tensor index).
	DP [][]int

	stageOf []int // rank -> pipeline stage
	dpRowOf []int // rank -> DP row index
	ppRowOf []int // rank -> PP row index
}

// New builds the assignment for n devices. gpusPerNode guards the tensor
// constraint; pass topology.DefaultGPUsPerNode when unsure.
func New(n, gpusPerNode int, deg Degrees) (*Assignment, error) {
	if err := deg.Validate(n, gpusPerNode); err != nil {
		return nil, err
	}
	t, p, d := deg.T, deg.P, deg.D
	// Each matrix holds every rank once, so the three matrices and the
	// three lookup tables are carved from one array of 6n ints.
	ints := make([]int, 6*n)
	take := func(k int) []int {
		r := ints[:k:k]
		ints = ints[k:]
		return r
	}
	a := &Assignment{
		Degrees: deg, N: n,
		stageOf: take(n),
		dpRowOf: take(n),
		ppRowOf: take(n),
		TP:      make([][]int, 0, p*d),
		PP:      make([][]int, 0, t*d),
		DP:      make([][]int, 0, p*t),
	}
	// Eq. 1: tensor groups are consecutive rank runs of length t.
	for i := 0; i < p*d; i++ {
		row := take(t)
		for j := 0; j < t; j++ {
			row[j] = i*t + j
		}
		a.TP = append(a.TP, row)
	}
	// Eq. 2: pipeline groups stride by t·d; member j is stage j.
	for i := 0; i < t*d; i++ {
		row := take(p)
		for j := 0; j < p; j++ {
			r := i + j*t*d
			row[j] = r
			a.stageOf[r] = j
			a.ppRowOf[r] = i
		}
		a.PP = append(a.PP, row)
	}
	// Eq. 3: data groups stride by t within one stage block.
	for i := 0; i < p*t; i++ {
		row := take(d)
		for j := 0; j < d; j++ {
			r := i%t + ((i/t)*d+j)*t
			row[j] = r
			a.dpRowOf[r] = i
		}
		a.DP = append(a.DP, row)
	}
	return a, nil
}

// StageOf returns the pipeline stage (0-based) a rank computes.
func (a *Assignment) StageOf(rank int) int { return a.stageOf[a.check(rank)] }

// DPRow returns the index of the data-parallel group containing rank.
func (a *Assignment) DPRow(rank int) int { return a.dpRowOf[a.check(rank)] }

// PPRow returns the index of the pipeline-parallel group containing rank.
func (a *Assignment) PPRow(rank int) int { return a.ppRowOf[a.check(rank)] }

// StageRanks returns all ranks computing the given pipeline stage: the
// contiguous block [stage·t·d, (stage+1)·t·d).
func (a *Assignment) StageRanks(stage int) []int {
	if stage < 0 || stage >= a.P {
		panic(fmt.Sprintf("parallel: stage %d out of range [0,%d)", stage, a.P))
	}
	out := make([]int, a.T*a.D)
	for i := range out {
		out[i] = stage*a.T*a.D + i
	}
	return out
}

func (a *Assignment) check(rank int) int {
	if rank < 0 || rank >= a.N {
		panic(fmt.Sprintf("parallel: rank %d out of range [0,%d)", rank, a.N))
	}
	return rank
}
