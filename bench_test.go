// Benchmark harness: one testing.B benchmark per paper table and figure,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// benchmark regenerates its experiment on the simulated substrate and
// reports the headline metric through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end (see EXPERIMENTS.md for
// paper-vs-measured).
package holmes

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"holmes/internal/api"
	"holmes/internal/experiments"
	"holmes/internal/loadgen"
	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/serve"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

func reportRows(b *testing.B, rows []ExperimentRow) {
	b.Helper()
	for _, r := range rows {
		b.Logf("%-24s %8.1f TFLOPS %10.2f samples/s (paper: %.0f / %.2f)  %s",
			r.Label, r.TFLOPS, r.Throughput, r.PaperTFLOPS, r.PaperThroughput, r.Partition)
	}
}

func benchExperiment(b *testing.B, id string) []ExperimentRow {
	b.Helper()
	suite := experiments.NewSuite(nil)
	var rows []ExperimentRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = suite.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
	return rows
}

// BenchmarkTable1 regenerates Table 1: GPT-3.6B on 4 nodes across
// InfiniBand / RoCE / Ethernet (+ the Hybrid cell).
func BenchmarkTable1(b *testing.B) {
	rows := benchExperiment(b, "table1")
	b.ReportMetric(rows[0].TFLOPS, "IB-TFLOPS")
}

// BenchmarkTable3 regenerates the full Table 3 grid: 4 parameter groups ×
// 4 environments × {4,6,8} nodes (48 simulations per iteration).
func BenchmarkTable3(b *testing.B) {
	rows := benchExperiment(b, "table3")
	b.ReportMetric(float64(len(rows)), "cells")
}

// BenchmarkFigure4 regenerates the grads-reduce-scatter comparison.
func BenchmarkFigure4(b *testing.B) {
	rows := benchExperiment(b, "fig4")
	for _, r := range rows {
		b.Logf("%-24s %10.1f ms", r.Label, r.ReduceScatterMs)
	}
}

// BenchmarkFigure5 regenerates the self-adapting vs uniform partition
// comparison.
func BenchmarkFigure5(b *testing.B) {
	rows := benchExperiment(b, "fig5")
	b.ReportMetric(rows[0].TFLOPS-rows[1].TFLOPS, "PG1-SA-gain-TFLOPS")
}

// BenchmarkFigure6 regenerates the framework comparison (PG3, 8 hybrid
// nodes).
func BenchmarkFigure6(b *testing.B) {
	rows := benchExperiment(b, "fig6")
	b.ReportMetric(rows[len(rows)-1].Throughput, "Holmes-samples/s")
}

// BenchmarkFigure7 regenerates the 39.1B scalability study (4/8/12
// nodes).
func BenchmarkFigure7(b *testing.B) {
	rows := benchExperiment(b, "fig7")
	for _, r := range rows {
		if r.PaperThroughput > 0 {
			b.Logf("%-20s %8.2f samples/s (paper %.2f)", r.Label, r.Throughput, r.PaperThroughput)
		}
	}
}

// BenchmarkTable4 regenerates the component ablation.
func BenchmarkTable4(b *testing.B) {
	rows := benchExperiment(b, "table4")
	b.ReportMetric(rows[1].TFLOPS, "Holmes-TFLOPS")
}

// BenchmarkScenarioImpaired times one PG3 hybrid iteration under the
// scenario grid's impairment arm (straggler + loss + delay + seeded
// jitter on node 0): the cost of the per-flow impairment fold — jitter
// draws, latency stacking, efficiency derating — on top of a plain
// simulation. Gated against BENCH_baseline.json in CI.
func BenchmarkScenarioImpaired(b *testing.B) {
	topo := topology.HybridEnv(8)
	spec := model.Group(3).Spec
	var sc *scenario.Scenario
	for _, v := range experiments.ScenarioVariants {
		if v.Name == "impaired" {
			sc = v
		}
	}
	if sc == nil {
		b.Fatal("scenario grid lost its impaired arm")
	}
	var rep trainer.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = trainer.Simulate(trainer.Config{
			Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 4,
			Framework: trainer.Holmes, Scenario: sc,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.TFLOPS, "TFLOPS")
}

// --- Ablation benches beyond the paper ---

// BenchmarkAblationAlpha sweeps the self-adapting partition's α
// hyper-parameter around the paper's 1.05.
func BenchmarkAblationAlpha(b *testing.B) {
	topo := topology.HybridEnv(8)
	spec := model.Group(1).Spec
	for _, alpha := range []float64{0.95, 1.05, 1.15} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			opt := trainer.DefaultOptions(trainer.Holmes)
			opt.Alpha = alpha
			var rep trainer.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = trainer.Simulate(trainer.Config{
					Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 2,
					Framework: trainer.Holmes, Opt: &opt,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.TFLOPS, "TFLOPS")
		})
	}
}

// BenchmarkAblationSchedule compares 1F1B against GPipe on the hybrid
// environment.
func BenchmarkAblationSchedule(b *testing.B) {
	topo := topology.HybridEnv(4)
	spec := model.Group(1).Spec
	for _, gpipe := range []bool{false, true} {
		name := "1F1B"
		if gpipe {
			name = "GPipe"
		}
		b.Run(name, func(b *testing.B) {
			opt := trainer.DefaultOptions(trainer.Holmes)
			opt.GPipeSchedule = gpipe
			var rep trainer.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = trainer.Simulate(trainer.Config{
					Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 2,
					Framework: trainer.Holmes, Opt: &opt,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.TFLOPS, "TFLOPS")
		})
	}
}

// BenchmarkAblationNICCount isolates the IB-4-NICs vs RoCE-2-NICs
// asymmetry (DESIGN.md decision 1): a RoCE cluster with 4 NICs per node
// closes part of the gap to InfiniBand.
func BenchmarkAblationNICCount(b *testing.B) {
	spec := model.Group(1).Spec
	base := trainer.BaseOptions()
	for _, tc := range []struct {
		name string
		nics int
	}{{"RoCE-2NICs", 2}, {"RoCE-4NICs", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			topo := topology.MustBuild(topology.Spec{Clusters: []topology.ClusterSpec{
				{NIC: topology.RoCE, Nodes: 4, NICsPerNode: tc.nics},
			}})
			var rep trainer.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = trainer.Simulate(trainer.Config{
					Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 2,
					Framework: trainer.Holmes, Opt: &base,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.TFLOPS, "TFLOPS")
		})
	}
}

// BenchmarkAblationOverlap isolates the overlapped distributed optimizer
// on the slowest fabric, where it matters most.
func BenchmarkAblationOverlap(b *testing.B) {
	topo := topology.EthernetEnv(4)
	spec := model.Group(1).Spec
	for _, overlap := range []bool{false, true} {
		name := "serial"
		if overlap {
			name = "overlapped"
		}
		b.Run(name, func(b *testing.B) {
			opt := trainer.BaseOptions()
			opt.OverlappedOptimizer = overlap
			var rep trainer.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = trainer.Simulate(trainer.Config{
					Topo: topo, Spec: spec, TensorSize: 1, PipelineSize: 2,
					Framework: trainer.Holmes, Opt: &opt,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.TFLOPS, "TFLOPS")
		})
	}
}

// BenchmarkPlanBatch measures the serving layer end to end: one
// 32-item /v1/plan/batch request (distinct Table-3 cells) against an
// in-process server, decoded envelope to encoded response. This is the
// ns/op the CI perf gate holds against BENCH_serve.json.
func BenchmarkPlanBatch(b *testing.B) {
	pool := serve.New(serve.Config{})
	handler := api.NewServerPool(pool).Handler()
	body := []byte(loadgen.BatchBody(32, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/plan/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(32, "plans/req")
}

// reportSearches reports the joint searches the engine ran since the
// before snapshot, per benchmark op: the fleet benchmarks' work counter.
func reportSearches(b *testing.B, eng *Engine, before SearchStats) {
	b.ReportMetric(float64(eng.SearchStats().Searches-before.Searches)/float64(b.N), "searches/op")
}

// BenchmarkFleetSchedule measures the fleet scheduler end to end: one
// replay of the canonical 12-job trace (10-node IB/RoCE/Ethernet fleet,
// mid-run node failure, degrade, restore) — carve, score, place,
// evict, requeue — on one engine. This is the ns/op the CI perf gate
// holds against BENCH_fleet.json.
func BenchmarkFleetSchedule(b *testing.B) {
	tr, err := LoadFleetTrace("internal/fleet/testdata/fleet12.json")
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Concurrency: benchWidth})
	b.ReportAllocs()
	b.ResetTimer()
	var sched *FleetSchedule
	for i := 0; i < b.N; i++ {
		sched, err = ReplayFleetOn(eng, tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSearches(b, eng, SearchStats{})
	b.ReportMetric(float64(len(sched.Jobs)), "jobs")
	b.ReportMetric(sched.Makespan, "makespan-s")
	b.ReportMetric(100*sched.Utilization, "util-%")
}

// BenchmarkFleetScheduleWarm measures the same 12-job replay against a
// pre-warmed engine: every slice plan comes from the engine-shared plan
// cache, isolating the scheduler's own bookkeeping (carve, fingerprint,
// queue, clock) from the joint-search cost that dominates the cold run.
// This is the steady-state cost a long-lived server pays per /v1/jobs
// schedule poll with a hot cache.
func BenchmarkFleetScheduleWarm(b *testing.B) {
	tr, err := LoadFleetTrace("internal/fleet/testdata/fleet12.json")
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Concurrency: benchWidth})
	if _, err := ReplayFleetOn(eng, tr); err != nil {
		b.Fatal(err)
	}
	warm := eng.SearchStats()
	b.ReportAllocs()
	b.ResetTimer()
	var sched *FleetSchedule
	for i := 0; i < b.N; i++ {
		sched, err = ReplayFleetOn(eng, tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSearches(b, eng, warm)
	b.ReportMetric(float64(len(sched.Jobs)), "jobs")
	b.ReportMetric(sched.Makespan, "makespan-s")
}

// BenchmarkFleetMutate measures the incremental rescheduling path: a
// live FleetManager under submit / fail_node / restore / cancel churn,
// with a schedule poll after every mutation. Each mutation invalidates
// only the replay suffix after its change point, so a poll resumes from
// the newest surviving checkpoint instead of replaying from virtual
// time zero — the hot path of /v1/jobs under load.
func BenchmarkFleetMutate(b *testing.B) {
	tr, err := LoadFleetTrace("internal/fleet/testdata/fleet12.json")
	if err != nil {
		b.Fatal(err)
	}
	topo, err := tr.Fleet.Topology()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Concurrency: benchWidth})
	m, err := NewFleetManager(eng, topo)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := m.Submit(j); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := m.Schedule(); err != nil {
		b.Fatal(err)
	}
	churn := FleetJob{ID: "churn", Submit: 40, GPUs: topo.GPUsPerNode, Model: FleetModel{Group: 1}}
	fail := &Scenario{Events: []ScenarioEvent{
		{Kind: "fail_node", At: 45, Node: 1},
		{Kind: "restore_node", At: 60, Node: 1},
	}}
	warm := eng.SearchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutateScript(b, m, churn, fail)
	}
	reportSearches(b, eng, warm)
	b.ReportMetric(4, "polls/op")
}

// BenchmarkFleetMutateLarge runs BenchmarkFleetMutate's script at the
// fleet-churn workload's scale: a 24-node fleet (eight nodes each of
// InfiniBand, RoCE and Ethernet) holding 60 live jobs of one or two
// nodes, with the churn job and the node failure half-way through the
// submits, so each poll resumes mid-trace. One round of the script runs
// before the timer and warms the plan cache, so the benchmark measures
// the polls, not the search: searches/op reads 0.
func BenchmarkFleetMutateLarge(b *testing.B) {
	topo, err := BuildTopology(
		ClusterSpec{NIC: InfiniBand, Nodes: 8},
		ClusterSpec{NIC: RoCE, Nodes: 8},
		ClusterSpec{NIC: Ethernet, Nodes: 8},
	)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Concurrency: benchWidth})
	m, err := NewFleetManager(eng, topo)
	if err != nil {
		b.Fatal(err)
	}
	// Jobs arrive 0–39 s apart (a fixed stride, not a draw), each on one
	// or two nodes for one to five iterations, the four parameter groups
	// in turn.
	var submit, mid float64
	for i := range 60 {
		submit += float64((i * 23) % 40)
		j := FleetJob{
			ID:         fmt.Sprintf("j%02d", i),
			Submit:     submit,
			GPUs:       topo.GPUsPerNode * (1 + i%2),
			Iterations: 1 + (i*7)%5,
			Model:      FleetModel{Group: 1 + i%4},
		}
		if err := m.Submit(j); err != nil {
			b.Fatal(err)
		}
		if i == 30 {
			mid = submit
		}
	}
	churn := FleetJob{ID: "churn", Submit: mid + 1, GPUs: topo.GPUsPerNode, Model: FleetModel{Group: 1}}
	fail := &Scenario{Events: []ScenarioEvent{
		{Kind: "fail_node", At: mid + 5, Node: 9},
		{Kind: "restore_node", At: mid + 60, Node: 9},
	}}
	mutateScript(b, m, churn, fail)
	warm := eng.SearchStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mutateScript(b, m, churn, fail)
	}
	reportSearches(b, eng, warm)
	b.ReportMetric(4, "polls/op")
}

// mutateScript is one op of the mutate benchmarks: submit the churn job,
// set a fail-and-restore timeline, clear it, and cancel the churn job,
// with a schedule poll after each.
func mutateScript(b *testing.B, m *FleetManager, churn FleetJob, fail *Scenario) {
	poll := func() {
		if _, err := m.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Submit(churn); err != nil {
		b.Fatal(err)
	}
	poll()
	if err := m.SetScenario(fail); err != nil {
		b.Fatal(err)
	}
	poll()
	if err := m.SetScenario(nil); err != nil {
		b.Fatal(err)
	}
	poll()
	if !m.Cancel(churn.ID) {
		b.Fatal("cancel failed")
	}
	poll()
}

// BenchmarkPlannerSearch measures the pipeline-degree search itself.
func BenchmarkPlannerSearch(b *testing.B) {
	topo := topology.HybridEnv(4)
	for i := 0; i < b.N; i++ {
		if _, err := AutoPlan(topo, ParameterGroup(1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// searchColdCorpus is the Table-3 grid as joint-search inputs: every
// environment × node count × parameter group the paper evaluates.
func searchColdCorpus(b *testing.B) []*Topology {
	b.Helper()
	var topos []*Topology
	for _, env := range []func(int) *Topology{IB, RoCECluster, EthernetCluster, Hybrid} {
		for _, nodes := range []int{4, 6, 8} {
			topos = append(topos, env(nodes))
		}
	}
	return topos
}

// runSearchCorpus runs the full joint (t, p) search for all four
// parameter groups on every corpus topology against one engine.
func runSearchCorpus(b *testing.B, eng *Engine, topos []*Topology) {
	b.Helper()
	for _, topo := range topos {
		for group := 1; group <= 4; group++ {
			if _, err := SearchPlanOn(eng, topo, ParameterGroup(group)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchWidth pins the engine concurrency of every benchmark that
// searches (the cold-search pair and the fleet benchmarks) to the
// reference host's core count: the search's wave width decides which
// incumbent each cell meets, so an unpinned engine would do a different
// amount of work — and report different counters — on every runner.
const benchWidth = 2

// BenchmarkSearchCold measures the cold joint-search path over the whole
// Table-3 corpus (48 searches per iteration) on a fresh engine each
// iteration — no winner memo, no warm communicator cache across
// iterations. This is the bound-pruned, branch-and-bound search the
// tentpole introduced, and the ns/op the CI perf gate holds against
// BENCH_coldpath.json; BenchmarkSearchColdExhaustive below is the
// unpruned reference the ≥3× claim is measured against.
func BenchmarkSearchCold(b *testing.B) {
	topos := searchColdCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var st SearchStats
	for i := 0; i < b.N; i++ {
		eng := NewEngine(EngineConfig{Concurrency: benchWidth})
		runSearchCorpus(b, eng, topos)
		st = eng.SearchStats()
	}
	b.ReportMetric(float64(st.Simulated), "simulated/op")
	b.ReportMetric(float64(st.Pruned), "pruned/op")
	b.ReportMetric(float64(st.Aborted), "aborted/op")
	b.ReportMetric(float64(st.Events), "events/op")
}

// BenchmarkSearchColdExhaustive is the same corpus through the
// exhaustive oracle (engine-level FullRecompute): every candidate cell
// event-simulated to completion. Not CI-gated — it exists as the
// denominator of the cold-path speedup recorded in BENCH_coldpath.json.
func BenchmarkSearchColdExhaustive(b *testing.B) {
	topos := searchColdCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var st SearchStats
	for i := 0; i < b.N; i++ {
		eng := NewEngine(EngineConfig{Concurrency: benchWidth, FullRecompute: true})
		runSearchCorpus(b, eng, topos)
		st = eng.SearchStats()
	}
	b.ReportMetric(float64(st.Simulated), "simulated/op")
}

// BenchmarkWarmBoot measures a snapshot warm start end to end: a fresh
// pool + server loads a snapshot recorded by a server that answered the
// Table-3 corpus, then answers the same corpus. Every request must come
// out of the restored response cache (the ≥90% hit floor from ROADMAP
// item 3); the measured ns/op is the whole boot-and-serve cycle, which
// is what a rolling restart pays before it is hot.
func BenchmarkWarmBoot(b *testing.B) {
	corpus := loadgen.PlanBodies()
	corpus = append(corpus, loadgen.SearchBodies()...)
	corpus = append(corpus, loadgen.SimulateBodies()...)
	drive := func(srv *api.Server) {
		b.Helper()
		handler := srv.Handler()
		for _, body := range corpus {
			path := "/v1/plan"
			if bytes.Contains([]byte(body), []byte("scenario")) {
				path = "/v1/simulate"
			} else if !bytes.Contains([]byte(body), []byte("pipeline_size")) {
				path = "/v1/search"
			}
			req := httptest.NewRequest("POST", path, bytes.NewReader([]byte(body)))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("%s -> %d: %s", path, rec.Code, rec.Body.String())
			}
		}
	}

	seedPool := serve.New(serve.Config{})
	seedSrv := api.NewServerPool(seedPool)
	drive(seedSrv)
	snap, err := seedSrv.SaveSnapshot()
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var hitRatio float64
	for i := 0; i < b.N; i++ {
		pool := serve.New(serve.Config{})
		srv := api.NewServerPool(pool)
		if _, err := srv.LoadSnapshot(snap); err != nil {
			b.Fatal(err)
		}
		drive(srv)
		st := pool.ResponseCacheStats()
		hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
		if hitRatio < 0.9 {
			b.Fatalf("warm boot answered only %.0f%% of the corpus from cache (%d hits, %d misses)",
				100*hitRatio, st.Hits, st.Misses)
		}
	}
	b.ReportMetric(float64(len(snap)), "snapshot-bytes")
	b.ReportMetric(100*hitRatio, "cache-hit-%")
}
