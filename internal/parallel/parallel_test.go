package parallel

import (
	"sort"
	"testing"
	"testing/quick"

	"holmes/internal/topology"
)

func TestMegatronOrderingSmall(t *testing.T) {
	// t=2, p=2, d=2, N=8: the canonical Megatron example.
	a, err := New(8, 4, Degrees{T: 2, P: 2, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantTP := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	wantPP := [][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
	wantDP := [][]int{{0, 2}, {1, 3}, {4, 6}, {5, 7}}
	eq := func(a, b [][]int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if len(a[i]) != len(b[i]) {
				return false
			}
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	if !eq(a.TP, wantTP) {
		t.Errorf("TP = %v, want %v", a.TP, wantTP)
	}
	if !eq(a.PP, wantPP) {
		t.Errorf("PP = %v, want %v", a.PP, wantPP)
	}
	if !eq(a.DP, wantDP) {
		t.Errorf("DP = %v, want %v", a.DP, wantDP)
	}
}

func TestFigure3Configuration(t *testing.T) {
	// Figure 3 of the paper: 2 clusters × 2 nodes × 4 GPUs = 16 ranks,
	// d=2, t=2, p=4. Stages must be contiguous blocks of t·d = 4 ranks.
	a, err := New(16, 4, Degrees{T: 2, P: 4, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		if got, want := a.StageOf(r), r/4; got != want {
			t.Fatalf("StageOf(%d) = %d, want %d", r, got, want)
		}
	}
	topo := topology.MustBuild(topology.Spec{
		GPUsPerNode: 4,
		Clusters: []topology.ClusterSpec{
			{NIC: topology.InfiniBand, Nodes: 2},
			{NIC: topology.RoCE, Nodes: 2},
		},
	})
	// Stages 0–1 land in cluster 0 (IB), stages 2–3 in cluster 1 (RoCE):
	// every stage block sits inside one cluster.
	wantClusters := []int{0, 0, 1, 1}
	for s, want := range wantClusters {
		for _, r := range a.StageRanks(s) {
			if got := topo.Device(r).Cluster; got != want {
				t.Fatalf("stage %d rank %d in cluster %d, want %d", s, r, got, want)
			}
		}
	}
	// Cross-cluster pipeline parallelism keeps every DP group inside one
	// cluster, so each can ride that cluster's RDMA fabric.
	for i, g := range a.DP {
		for _, r := range g[1:] {
			if !topo.SameCluster(g[0], r) {
				t.Fatalf("DP group %d %v spans clusters", i, g)
			}
		}
	}
	for i, g := range a.TP {
		for _, r := range g[1:] {
			if !topo.SameNode(g[0], r) {
				t.Fatalf("tensor group %d %v spans nodes", i, g)
			}
		}
	}
	crossing := 0
	for _, g := range a.PP {
		for j := 0; j+1 < len(g); j++ {
			if !topo.SameCluster(g[j], g[j+1]) {
				crossing++
			}
		}
	}
	if crossing == 0 {
		t.Fatal("pipeline groups must cross the cluster boundary")
	}
}

func TestDegreesValidate(t *testing.T) {
	bad := []struct {
		d Degrees
		n int
	}{
		{Degrees{T: 0, P: 1, D: 8}, 8},   // non-positive degree
		{Degrees{T: 1, P: 3, D: 3}, 8},   // product 9 != 8
		{Degrees{T: 16, P: 1, D: 1}, 16}, // t > GPUs per node
		{Degrees{T: 3, P: 1, D: 8}, 24},  // t does not divide GPUs per node
	}
	for _, tc := range bad {
		if err := tc.d.Validate(tc.n, 8); err == nil {
			t.Errorf("Validate(%+v, n=%d) accepted", tc.d, tc.n)
		}
	}
	if err := (Degrees{T: 2, P: 2, D: 4}).Validate(16, 8); err != nil {
		t.Fatalf("good degrees rejected: %v", err)
	}
}

// Property: for arbitrary valid (t,p,d), the three matrices form exact
// partitions of the rank set, and groups intersect pairwise per theory:
// |TP∩PP| ≤ 1 etc. through membership consistency.
func TestGroupPartitionProperty(t *testing.T) {
	f := func(tRaw, pRaw, dRaw uint8) bool {
		tt := []int{1, 2, 4, 8}[tRaw%4]
		p := int(pRaw%4) + 1
		d := int(dRaw%4) + 1
		n := tt * p * d
		a, err := New(n, 8, Degrees{T: tt, P: p, D: d})
		if err != nil {
			return false
		}
		covers := func(rows [][]int) bool {
			seen := make([]bool, n)
			for _, g := range rows {
				for _, r := range g {
					if r < 0 || r >= n || seen[r] {
						return false
					}
					seen[r] = true
				}
			}
			for _, s := range seen {
				if !s {
					return false
				}
			}
			return true
		}
		if !covers(a.TP) || !covers(a.PP) || !covers(a.DP) {
			return false
		}
		// Membership lookups agree with matrices: a rank's TP group is
		// its run of t (Eq. 1), its DP row holds it, and it sits at its
		// stage's index in its PP row.
		for r := 0; r < n; r++ {
			if !containsInt(a.TP[r/tt], r) || !containsInt(a.DP[a.DPRow(r)], r) {
				return false
			}
			if a.PP[a.PPRow(r)][a.StageOf(r)] != r {
				return false
			}
		}
		// Stage blocks are contiguous.
		for s := 0; s < p; s++ {
			ranks := a.StageRanks(s)
			if !sort.IntsAreSorted(ranks) || ranks[0] != s*tt*d || len(ranks) != tt*d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func TestStageRanksBounds(t *testing.T) {
	a, _ := New(8, 8, Degrees{T: 1, P: 2, D: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("bad stage did not panic")
		}
	}()
	a.StageRanks(2)
}

func TestRankBounds(t *testing.T) {
	a, _ := New(8, 8, Degrees{T: 1, P: 2, D: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("bad rank did not panic")
		}
	}()
	a.StageOf(8)
}
