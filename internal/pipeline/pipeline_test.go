package pipeline

import (
	"math"
	"testing"
	"testing/quick"

	"holmes/internal/netsim"
	"holmes/internal/sim"
	"holmes/internal/topology"
)

func TestOneFOneBValidates(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 4}, {4, 12}, {3, 8}, {8, 8}, {4, 2}} {
		s := OneFOneB(shape[0], shape[1])
		if err := s.Validate(); err != nil {
			t.Fatalf("1F1B p=%d m=%d: %v", shape[0], shape[1], err)
		}
	}
}

func TestGPipeValidates(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 4}, {4, 12}} {
		s := GPipe(shape[0], shape[1])
		if err := s.Validate(); err != nil {
			t.Fatalf("GPipe p=%d m=%d: %v", shape[0], shape[1], err)
		}
	}
}

func TestOneFOneBMemoryAdvantage(t *testing.T) {
	p, m := 4, 12
	f := OneFOneB(p, m)
	g := GPipe(p, m)
	// 1F1B keeps at most min(p-s, m) in flight; GPipe keeps m everywhere.
	for s := 0; s < p; s++ {
		want := p - s
		if want > m {
			want = m
		}
		if got := f.MaxInFlight(s); got != want {
			t.Fatalf("1F1B stage %d in-flight = %d, want %d", s, got, want)
		}
		if got := g.MaxInFlight(s); got != m {
			t.Fatalf("GPipe stage %d in-flight = %d, want %d", s, got, m)
		}
	}
}

func TestOneFOneBFirstStageWarmup(t *testing.T) {
	s := OneFOneB(4, 8)
	// Stage 0 warms up with p-1 = 3 forwards before its first backward.
	ops := s.Ops[0]
	for i := 0; i < 3; i++ {
		if ops[i].Kind != Forward {
			t.Fatalf("op %d = %v, want forward warm-up", i, ops[i])
		}
	}
	if ops[3].Kind != Forward || ops[4].Kind != Backward {
		t.Fatalf("steady state should start F3 B0, got %v %v", ops[3], ops[4])
	}
	// Last stage alternates immediately.
	last := s.Ops[3]
	if last[0].Kind != Forward || last[1].Kind != Backward {
		t.Fatalf("last stage should start F0 B0, got %v %v", last[0], last[1])
	}
}

func TestValidateCatchesDeadlock(t *testing.T) {
	s := &Schedule{Stages: 2, Micro: 1, Name: "broken"}
	// Stage 0 wants its backward before stage 1 produced it, and stage 1
	// cannot forward because... actually make stage 0 do B0 then F0: B0
	// needs B0 from stage 1, which needs F1's forward of stage1 which
	// needs F0 of stage 0 — cycle.
	s.Ops = [][]Op{
		{{Backward, 0}, {Forward, 0}},
		{{Forward, 0}, {Backward, 0}},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("deadlocked schedule validated")
	}
}

func TestValidateCatchesDuplicatesAndGaps(t *testing.T) {
	s := &Schedule{Stages: 1, Micro: 2, Name: "dup"}
	s.Ops = [][]Op{{{Forward, 0}, {Forward, 0}, {Backward, 0}, {Backward, 1}}}
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate op validated")
	}
	s2 := &Schedule{Stages: 1, Micro: 2, Ops: [][]Op{{{Forward, 0}}}}
	if err := s2.Validate(); err == nil {
		t.Fatal("short schedule validated")
	}
}

func TestBubbleFraction(t *testing.T) {
	if got := BubbleFraction(4, 12); math.Abs(got-3.0/15.0) > 1e-12 {
		t.Fatalf("BubbleFraction(4,12) = %v", got)
	}
	if got := BubbleFraction(1, 8); got != 0 {
		t.Fatalf("single stage bubble = %v, want 0", got)
	}
}

// Property: 1F1B schedules validate and drain for arbitrary shapes.
func TestOneFOneBValidProperty(t *testing.T) {
	f := func(pRaw, mRaw uint8) bool {
		p := int(pRaw%8) + 1
		m := int(mRaw%16) + 1
		s := OneFOneB(p, m)
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// runOne builds, starts, and runs an executor to completion on a fresh
// engine pass, returning the iteration makespan. The engine must have no
// unrelated pending events.
func runOne(eng *sim.Engine, fab *netsim.Fabric, sched *Schedule, cfg ExecConfig) (sim.Time, error) {
	var end sim.Time
	prev := cfg.OnDone
	cfg.OnDone = func(now sim.Time) {
		end = now
		if prev != nil {
			prev(now)
		}
	}
	ex, err := NewExecutor(eng, fab, sched, cfg)
	if err != nil {
		return 0, err
	}
	start := eng.Now()
	ex.Start()
	eng.Run()
	return end - start, nil
}

func execEnv() (*sim.Engine, *netsim.Fabric, *topology.Topology) {
	topo := topology.HybridEnv(4)
	eng := sim.NewEngine()
	fab := netsim.New(eng, topo, netsim.DefaultParams())
	return eng, fab, topo
}

func uniformCfg(p int, tf, tb float64, ranks []int) ExecConfig {
	f := make([]float64, p)
	b := make([]float64, p)
	for i := range f {
		f[i], b[i] = tf, tb
	}
	return ExecConfig{
		Ranks:           ranks,
		ForwardTime:     f,
		BackwardTime:    b,
		ActivationBytes: 0, // pure-compute tests
		Class:           netsim.Ether,
	}
}

func TestExecutorSingleStage(t *testing.T) {
	eng, fab, _ := execEnv()
	sched := OneFOneB(1, 4)
	dur, err := runOne(eng, fab, sched, uniformCfg(1, 1, 2, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	// 4 forwards + 4 backwards, no pipeline, no comm: 4*(1+2) = 12.
	if math.Abs(dur-12) > 1e-9 {
		t.Fatalf("single-stage iteration = %v, want 12", dur)
	}
}

func TestExecutorMatchesAnalyticNoComm(t *testing.T) {
	eng, fab, _ := execEnv()
	p, m := 4, 12
	sched := OneFOneB(p, m)
	tf, tb := 0.01, 0.02
	dur, err := runOne(eng, fab, sched, uniformCfg(p, tf, tb, []int{0, 8, 16, 24}))
	if err != nil {
		t.Fatal(err)
	}
	// Zero-byte hops still pay per-message latency, so allow small slack
	// above the analytic pure-compute makespan.
	want := AnalyticIterTime(
		[]float64{tf, tf, tf, tf}, []float64{tb, tb, tb, tb}, 0, m)
	if dur < want-1e-9 || dur > want*1.05 {
		t.Fatalf("1F1B makespan %v, analytic %v", dur, want)
	}
}

func TestExecutorBubbleGrowsWithStages(t *testing.T) {
	// Same total work, more stages -> larger bubble share.
	m := 8
	total := 0.24 // seconds of F+B per micro-batch across the whole model
	iter := func(p int) float64 {
		eng, fab, _ := execEnv()
		ranks := []int{0, 8, 16, 24}[:p]
		tf := total / 3 / float64(p)
		tb := 2 * total / 3 / float64(p)
		dur, err := runOne(eng, fab, OneFOneB(p, m), uniformCfg(p, tf, tb, ranks))
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	t1, t2, t4 := iter(1), iter(2), iter(4)
	// Pipelining the fixed work across more stages shortens the iteration...
	if !(t1 > t2 && t2 > t4) {
		t.Fatalf("pipelining must shorten iterations: %v %v %v", t1, t2, t4)
	}
	// ...but per-GPU utilization falls as the bubble share (p-1)/(m+p-1)
	// grows.
	util := func(p int, dur float64) float64 {
		return float64(m) * total / float64(p) / dur
	}
	u1, u2, u4 := util(1, t1), util(2, t2), util(4, t4)
	if !(u1 > u2 && u2 > u4) {
		t.Fatalf("bubble share must erode utilization: %v %v %v", u1, u2, u4)
	}
	// Quantitatively: utilization ≈ m/(m+p-1).
	if math.Abs(u4-8.0/11.0) > 0.02 {
		t.Fatalf("p=4 utilization %v, want ~%v", u4, 8.0/11.0)
	}
}

func TestExecutorSlowStageDominates(t *testing.T) {
	// Uneven stages: the slow stage sets the beat. Mirrors why uniform
	// partition is wrong on heterogeneous clusters (§3.3).
	eng, fab, _ := execEnv()
	p, m := 2, 8
	cfg := uniformCfg(p, 0, 0, []int{0, 16})
	cfg.ForwardTime = []float64{0.01, 0.03}
	cfg.BackwardTime = []float64{0.02, 0.06}
	dur, err := runOne(eng, fab, OneFOneB(p, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lower := float64(m) * 0.09 // slow stage busy time
	if dur < lower {
		t.Fatalf("makespan %v below slow-stage busy time %v", dur, lower)
	}
	upper := float64(m)*0.09 + 0.03 + 0.06 + 0.01
	if dur > upper {
		t.Fatalf("makespan %v above expected bound %v", dur, upper)
	}
}

func TestExecutorCommDelaysPipeline(t *testing.T) {
	// Cross-cluster hop at Ethernet speed must stretch the iteration
	// versus free communication.
	run := func(bytes float64) float64 {
		eng, fab, _ := execEnv()
		cfg := uniformCfg(2, 0.005, 0.01, []int{0, 16}) // IB node -> RoCE node
		cfg.ActivationBytes = bytes
		dur, err := runOne(eng, fab, OneFOneB(2, 8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	free := run(0)
	heavy := run(50e6) // 50 MB per hop over ~2.75 GB/s Ethernet
	if heavy <= free*1.2 {
		t.Fatalf("50MB hops should visibly stretch the pipeline: %v vs %v", heavy, free)
	}
}

func TestExecutorBackwardHook(t *testing.T) {
	eng, fab, _ := execEnv()
	p, m := 2, 4
	var events []int
	cfg := uniformCfg(p, 0.001, 0.002, []int{0, 8})
	cfg.OnBackwardDone = func(stage, micro int, now sim.Time) {
		events = append(events, stage*100+micro)
	}
	if _, err := runOne(eng, fab, OneFOneB(p, m), cfg); err != nil {
		t.Fatal(err)
	}
	if len(events) != p*m {
		t.Fatalf("backward hook fired %d times, want %d", len(events), p*m)
	}
}

func TestExecutorGPipeSlowerThanOneFOneBWithComm(t *testing.T) {
	// With communication in the path, 1F1B is no slower than GPipe for the
	// same shape (and typically faster end-to-end in steady state).
	shape := func(s *Schedule) float64 {
		eng, fab, _ := execEnv()
		cfg := uniformCfg(2, 0.004, 0.008, []int{0, 16})
		cfg.ActivationBytes = 1e6
		dur, err := runOne(eng, fab, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	f := shape(OneFOneB(2, 8))
	g := shape(GPipe(2, 8))
	// The two flush schedules share the same bubble structure, so their
	// makespans agree to within a few percent; 1F1B's advantage is the
	// bounded in-flight memory checked in TestOneFOneBMemoryAdvantage.
	if f > g*1.08 || g > f*1.08 {
		t.Fatalf("1F1B (%v) and GPipe (%v) diverged beyond bubble equivalence", f, g)
	}
}

func TestExecutorConfigErrors(t *testing.T) {
	eng, fab, _ := execEnv()
	sched := OneFOneB(2, 2)
	bad := []ExecConfig{
		{Ranks: []int{0}, ForwardTime: []float64{1, 1}, BackwardTime: []float64{1, 1}},
		{Ranks: []int{0, 8}, ForwardTime: []float64{1}, BackwardTime: []float64{1, 1}},
		{Ranks: []int{0, 8}, ForwardTime: []float64{1, -1}, BackwardTime: []float64{1, 1}},
		{Ranks: []int{0, 8}, ForwardTime: []float64{1, 1}, BackwardTime: []float64{1, 1}, ActivationBytes: -5},
	}
	for i, cfg := range bad {
		if _, err := NewExecutor(eng, fab, sched, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAnalyticIterTimePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AnalyticIterTime(nil, nil, 0, 4)
}
