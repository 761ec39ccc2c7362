package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"holmes"
	"holmes/benchmark/gen"
	"holmes/benchmark/spans"
)

// Fleet-churn sizes. A run churns independent fleets on one engine, as a
// daemon hosting several fleets does: a fleet's schedule carries its
// whole history, so one long churn lets the first few failures and
// degradations shape every later number, while several shorter churns
// average that out. Every fleet takes fleetMutations mutations, and a
// run churns fleetsPerSecond fleets for each second of its length, the
// pace of the reference host (README.md), so both sides of a comparison
// replay exactly the same mutations. Set-up takes a tenth of a second
// or two and the host's speed drifts from second to second, so it is
// repeated fleetSetups times and its median reported.
const (
	fleetSetups     = 9
	fleetMutations  = 500
	fleetsPerSecond = 1.8
)

// fleetChildMain runs fleet-churn in this process and prints its outcome
// as JSON. The parent benchmark process starts it, so the peak RSS it
// reports is the fleet's own.
func fleetChildMain(args []string) int {
	fs := flag.NewFlagSet("fleet-child", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "run length; sizes the fleet count")
	traceOut := fs.String("trace-out", "", "traced run: write the Chrome trace here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o, err := fleetChurn(*seed, *seconds, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet-churn: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fmt.Fprintf(os.Stderr, "fleet-churn: %v\n", err)
		return 1
	}
	return 0
}

// fleetSpec is the generated fleet in the trace schema. The facade does
// not export the schema's cluster type, so the spec is decoded from its
// JSON form, as a trace file would be.
func fleetSpec() (holmes.FleetSpec, error) {
	var spec holmes.FleetSpec
	b, err := json.Marshal(map[string]any{"clusters": gen.FleetClusters})
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

func fleetTopology() (*holmes.Topology, error) {
	var cs []holmes.ClusterSpec
	for _, c := range gen.FleetClusters {
		nic := map[string]holmes.NICType{"InfiniBand": holmes.InfiniBand, "RoCE": holmes.RoCE, "Ethernet": holmes.Ethernet}[c.NIC]
		cs = append(cs, holmes.ClusterSpec{NIC: nic, Nodes: c.Nodes})
	}
	return holmes.BuildTopology(cs...)
}

func fleetJob(j gen.FleetJob) holmes.FleetJob {
	return holmes.FleetJob{ID: j.ID, Submit: j.Submit, GPUs: j.GPUs, Iterations: j.Iterations, Model: holmes.FleetModel{Group: j.Group}}
}

// apply makes one mutation through the manager and keeps the live job
// set in step with it.
func apply(m *holmes.FleetManager, mu gen.Mutation, live map[string]gen.FleetJob) error {
	switch mu.Kind {
	case "submit":
		live[mu.Job.ID] = mu.Job
		return m.Submit(fleetJob(mu.Job))
	case "cancel":
		delete(live, mu.ID)
		if !m.Cancel(mu.ID) {
			return fmt.Errorf("cancel %s: no such job", mu.ID)
		}
		return nil
	}
	ev := holmes.ScenarioEvent{At: mu.At, Node: mu.Node, Factor: mu.Factor}
	switch mu.Kind {
	case "fail_node":
		ev.Kind = "fail_node"
	case "restore_node":
		ev.Kind = "restore_node"
	case "degrade_nic":
		ev.Kind = "degrade_nic"
	default:
		return fmt.Errorf("unknown mutation %q", mu.Kind)
	}
	return m.ApplyEvent(ev)
}

// canonicalSchedule renders a schedule for the digest: every placement's
// slice, degrees and times as exact float bits.
func canonicalSchedule(s *holmes.FleetSchedule) string {
	var b strings.Builder
	for _, p := range s.Jobs {
		fmt.Fprintf(&b, "%s%v%d/%d/%d %x %x %x %q;", p.JobID, p.Nodes, p.Degrees.Tensor, p.Degrees.Pipeline, p.Degrees.Data,
			math.Float64bits(p.Start), math.Float64bits(p.Finish), math.Float64bits(p.Throughput), p.Unplaced)
	}
	fmt.Fprintf(&b, "makespan %x", math.Float64bits(s.Makespan))
	return b.String()
}

// churn is one fleet-churn pass. Set-up — a fresh engine and manager,
// the first fleet's initial trace submitted, its first schedule — runs
// setups times, and the last engine is kept. Then each of the fleets in
// turn is created on that engine with its initial trace, takes
// fleetMutations seeded mutations, each followed by Schedule(), and has
// its final schedule checked against a replay of its final trace on a
// second, fresh engine. With a recorder, every mutation, poll, replay
// and carve is a span.
type churn struct {
	setup             []float64
	mutate, poll      []time.Duration
	searches          []float64
	carve, replay     []time.Duration
	res               loopResult
	digest            hash.Hash
	problems          []string
	search0, search1  holmes.SearchStats
	world0, world1    [2]uint64 // hits, misses
	plans0, plans1    [2]uint64
	gcCycles          uint32
	heapPeak          uint64
	jobs, live, fleet int
}

func runChurn(seed uint64, fleets, setups int, rec *spans.Recorder) (*churn, error) {
	c := &churn{digest: sha256.New()}
	spec, err := fleetSpec()
	if err != nil {
		return nil, err
	}
	topo, err := fleetTopology()
	if err != nil {
		return nil, err
	}
	begin := func(name, parent string, req int) func() time.Duration {
		if rec == nil {
			t0 := time.Now()
			return func() time.Duration { return time.Since(t0) }
		}
		return rec.Begin(name, parent, req)
	}
	newFleet := func(eng *holmes.Engine, f *gen.Fleet) (*holmes.FleetManager, error) {
		m, err := holmes.NewFleetManager(eng, topo)
		if err != nil {
			return nil, err
		}
		for _, j := range f.Initial {
			if err := m.Submit(fleetJob(j)); err != nil {
				return nil, fmt.Errorf("initial job %s: %w", j.ID, err)
			}
		}
		sched, err := m.Schedule()
		if err != nil {
			return nil, fmt.Errorf("first schedule: %w", err)
		}
		fmt.Fprintln(c.digest, canonicalSchedule(sched))
		return m, nil
	}
	var eng *holmes.Engine
	var first *holmes.FleetManager
	for range setups {
		t0 := time.Now()
		eng = holmes.NewEngine(holmes.EngineConfig{})
		c.digest.Reset()
		if first, err = newFleet(eng, gen.NewFleet(seed, 0)); err != nil {
			return nil, err
		}
		c.setup = append(c.setup, time.Since(t0).Seconds())
	}
	snap := func() ([2]uint64, [2]uint64) {
		w, p := eng.CacheStats(), eng.PlanCacheStats()
		return [2]uint64{w.Hits, w.Misses}, [2]uint64{p.Hits, p.Misses}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	c.search0 = eng.SearchStats()
	c.world0, c.plans0 = snap()
	verify := holmes.NewEngine(holmes.EngineConfig{})
	n := 0
	for k := range fleets {
		f := gen.NewFleet(seed, k)
		m := first
		if k > 0 {
			if m, err = newFleet(eng, f); err != nil {
				return nil, err
			}
		}
		live := map[string]gen.FleetJob{}
		for _, j := range f.Initial {
			live[j.ID] = j
		}
		c.jobs += len(f.Initial)
		start := time.Now()
		for range fleetMutations {
			mu := f.Next()
			if mu.Kind == "submit" {
				c.jobs++
			}
			s0 := eng.SearchStats().Searches
			endOp := begin("fleet.op", "", n)
			t0 := time.Now()
			end := begin("fleet.mutate", "fleet.op", n)
			err := apply(m, mu, live)
			c.mutate = append(c.mutate, end())
			var sched *holmes.FleetSchedule
			if err == nil {
				end = begin("fleet.poll", "fleet.op", n)
				sched, err = m.Schedule()
				c.poll = append(c.poll, end())
			}
			c.res.record(time.Since(t0), err)
			endOp()
			c.searches = append(c.searches, float64(eng.SearchStats().Searches-s0))
			if err == nil {
				fmt.Fprintln(c.digest, canonicalSchedule(sched))
			}
			if rec != nil {
				runtime.ReadMemStats(&ms)
				c.heapPeak = max(c.heapPeak, ms.HeapAlloc)
			}
			n++
		}
		c.res.elapsed += time.Since(start)
		c.live += len(live)
		if err := c.check(k, m, live, spec, topo, verify, begin); err != nil {
			return nil, err
		}
	}
	c.fleet = fleets
	c.search1 = eng.SearchStats()
	c.world1, c.plans1 = snap()
	runtime.ReadMemStats(&ms)
	c.gcCycles = ms.NumGC - gc0
	return c, nil
}

// check compares a fleet's final schedule with a replay of its final
// trace on the verify engine, and carves every final slice.
func (c *churn) check(k int, m *holmes.FleetManager, live map[string]gen.FleetJob, spec holmes.FleetSpec, topo *holmes.Topology,
	verify *holmes.Engine, begin func(name, parent string, req int) func() time.Duration) error {
	final, err := m.Schedule()
	if err != nil {
		return fmt.Errorf("fleet %d final schedule: %w", k, err)
	}
	jobs := make([]holmes.FleetJob, 0, len(live))
	for _, j := range live {
		jobs = append(jobs, fleetJob(j))
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})
	tr := &holmes.FleetTrace{Fleet: spec, Scenario: m.Scenario(), Jobs: jobs}
	end := begin("fleet.replay", "", k)
	replayed, err := holmes.ReplayFleetOn(verify, tr)
	c.replay = append(c.replay, end())
	switch {
	case err != nil:
		c.problems = append(c.problems, fmt.Sprintf("fleet %d: replay of the final trace: %v", k, err))
	case !reflect.DeepEqual(final, replayed):
		c.problems = append(c.problems, fmt.Sprintf("fleet %d: the final schedule differs from a fresh-engine replay of the final trace", k))
	}
	for i, p := range final.Jobs {
		if len(p.Nodes) == 0 {
			continue
		}
		end := begin("topology.carve", "", i)
		_, err := topo.Carve(p.Nodes)
		c.carve = append(c.carve, end())
		if err != nil {
			c.problems = append(c.problems, fmt.Sprintf("fleet %d: carve of %s's slice: %v", k, p.JobID, err))
		}
	}
	return nil
}

// fleetChurn runs the workload. An untraced run reports the end-to-end
// metrics; a traced run (traceOut set) repeats the churn from scratch
// with spans and reports the per-layer metrics, its rate over the
// untraced pass's rate being the tracing overhead.
func fleetChurn(seed uint64, seconds float64, traceOut string) (*outcome, error) {
	o := newOutcome()
	setups, fleets := fleetSetups, max(1, int(math.Round(seconds*fleetsPerSecond)))
	if traceOut != "" {
		setups, fleets = 1, max(1, fleets/2)
	}
	c, err := runChurn(seed, fleets, setups, nil)
	if err != nil {
		return nil, err
	}
	o.absorb(c.res)
	o.Problems = append(o.Problems, c.problems...)
	o.Digest = fmt.Sprintf("%x", c.digest.Sum(nil))[:16]
	o.Counts["fleets"], o.Counts["jobs"], o.Counts["live_jobs_at_end"], o.Counts["mutations"], o.Counts["setups"] =
		c.fleet, c.jobs, c.live, c.res.attempted, setups
	o.Phases["setup"] = sum(c.setup)
	o.Phases["churn"] = c.res.elapsed.Seconds()
	o.E2E["setup_s"] = quantile(c.setup, 0.5)
	latencyMetrics(o, c.res.lat)
	rate := float64(c.res.attempted-c.res.failed) / c.res.elapsed.Seconds()
	o.E2E["throughput_ops_s"] = rate
	if traceOut != "" {
		rec := spans.New()
		t, err := runChurn(seed, fleets, 1, rec)
		if err != nil {
			return nil, err
		}
		o.absorb(t.res)
		o.Problems = append(o.Problems, t.problems...)
		if d := fmt.Sprintf("%x", t.digest.Sum(nil))[:16]; d != o.Digest {
			o.problem("the traced churn's digest %s differs from the untraced %s", d, o.Digest)
		}
		fleetLayers(t, rate, o.Layer)
		if err := rec.WriteChrome(traceOut); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	o.E2E["peak_rss_mb"] = rss
	return o, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	return quantile(millis(ds), 0.5) * float64(time.Millisecond) / float64(unit)
}

// fleetLayers fills the per-layer metrics of a traced churn; the API,
// serving and load-generator layers are not on its path and read 0.
func fleetLayers(c *churn, untraced float64, layer map[string]float64) {
	for name := range layerUnits {
		layer[name] = 0
	}
	layer["fleet.mutate_us"] = medianOf(c.mutate, time.Microsecond)
	layer["fleet.poll_ms"] = medianOf(c.poll, time.Millisecond)
	layer["fleet.searches_per_poll"] = sum(c.searches) / float64(len(c.searches))
	layer["fleet.replay_ms"] = medianOf(c.replay, time.Millisecond)
	layer["topology.carve_us"] = medianOf(c.carve, time.Microsecond)
	hit := func(a, b [2]uint64) float64 {
		return ratio(float64(b[0]-a[0]), float64(b[0]-a[0]+b[1]-a[1]))
	}
	layer["engine.world_hit_ratio"] = hit(c.world0, c.world1)
	layer["engine.plan_cache_hit_ratio"] = hit(c.plans0, c.plans1)
	searchLayers(float64(c.search1.Searches-c.search0.Searches), float64(c.search1.Simulated-c.search0.Simulated),
		float64(c.search1.Pruned-c.search0.Pruned), float64(c.search1.Aborted-c.search0.Aborted), layer)
	layer["go.gc_cycles"] = float64(c.gcCycles)
	layer["go.heap_peak_mb"] = float64(c.heapPeak) / (1 << 20)
	traced := float64(c.res.attempted-c.res.failed) / c.res.elapsed.Seconds()
	layer["trace.overhead_ratio"] = ratio(traced, untraced)
	var ops, parts time.Duration
	for _, d := range c.res.lat {
		ops += d
	}
	for _, d := range append(append([]time.Duration(nil), c.mutate...), c.poll...) {
		parts += d
	}
	layer["trace.coverage_ratio"] = ratio(float64(parts), float64(ops))
}
