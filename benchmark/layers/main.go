// Command layers is the benchmark's traced pass over a daemon workload.
// It replays the workload's requests in process, each one twice on two
// independent serving pools that see the same requests in the same
// order: once whole, through the API handler, and once layer by layer,
// through each layer's public entry point with a span around every call.
// It prints the per-layer numbers as JSON and writes every span as a
// Chrome trace.
//
//	layers -ops ops.jsonl -seconds 10 -trace-out trace.json
//
// The layer-by-layer path makes the calls the handler makes, in its
// order: decode (config.Load), admission (serve.Pool.Admit), the
// response-cache lookup, topology build and fingerprint, then the plan,
// search or simulation, and the JSON encode of the answer. Their spans
// summed over the handler's span is the coverage ratio. Probe spans
// re-measure parts of that path on their own — a world build on an
// engine without a cache, the search's bound per cell, one simulation of
// a search winner — and stay out of the coverage sum.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"holmes/benchmark/spans"
	"holmes/internal/api"
	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/engine"
	"holmes/internal/parallel"
	"holmes/internal/serve"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// request is one line of the ops file.
type request struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
}

// item is one decoded operation: a whole request, or one batch item.
type item struct {
	op   string // plan, search, simulate
	cfg  *config.Config
	resp any // the handler's answer for it, re-encoded by the layer path
}

// pass is the traced replay state.
type pass struct {
	rec     *spans.Recorder
	handler http.Handler
	replica *serve.Pool
	probe   *engine.Engine // no cache: every World call builds

	failed    int
	firstFail string

	worldBuild []time.Duration
	boundTime  time.Duration
	boundCells int
	allocs     []float64
	bytes      []float64
	events     []float64
	heapPeak   uint64
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstFail == "" {
		p.firstFail = err.Error()
	}
}

// simulate runs one trainer.Simulate as a span, counting its
// allocations from the memory statistics around it.
func (p *pass) simulate(i int, parent string, tc trainer.Config) (trainer.Report, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := p.rec.Begin("trainer.simulate", parent, i)
	rep, err := trainer.Simulate(tc)
	end()
	runtime.ReadMemStats(&after)
	p.allocs = append(p.allocs, float64(after.Mallocs-before.Mallocs))
	p.bytes = append(p.bytes, float64(after.TotalAlloc-before.TotalAlloc))
	p.heapPeak = max(p.heapPeak, after.HeapAlloc)
	return rep, err
}

// probeWorld times one communicator-world build.
func (p *pass) probeWorld(i int, topo *topology.Topology, deg parallel.Degrees, opt trainer.Options) {
	end := p.rec.Begin("engine.world", "probe", i)
	_, _, err := p.probe.World(topo, deg, opt.NICSelection)
	p.worldBuild = append(p.worldBuild, end())
	if err != nil {
		p.fail(fmt.Errorf("world build: %w", err))
	}
}

// compute is the layer path of one operation after admission.
func (p *pass) compute(i int, it item) error {
	span := func(name string) func() time.Duration { return p.rec.Begin(name, "layers", i) }
	end := span("serve.cache")
	b, err := json.Marshal(it.cfg)
	key := it.op + "\x00" + string(b)
	_, hit := p.replica.CachedResponse(key)
	end()
	if err != nil {
		return err
	}
	if hit {
		return nil
	}
	if it.cfg.Scenario != nil {
		end := p.rec.Begin("scenario.validate", "probe", i)
		err := it.cfg.Scenario.Validate()
		end()
		if err != nil {
			return err
		}
	}
	end = span("topology.build")
	topo, spec, fw, opt, err := it.cfg.Components()
	end()
	if err != nil {
		return err
	}
	end = span("topology.fingerprint")
	shard := p.replica.ShardFor(topo.Fingerprint())
	end()
	options := trainer.DefaultOptions(fw)
	if opt != nil {
		options = *opt
	}
	switch it.op {
	case "search", "plan":
		pl, err := core.NewPlannerOn(shard, topo, spec)
		if err != nil {
			return err
		}
		pl.Framework, pl.Opt = fw, opt
		var plan *core.Plan
		if it.op == "search" {
			end = span("core.search")
			plan, err = pl.SearchPlan()
		} else {
			end = span("core.plan")
			plan, err = pl.Plan(it.cfg.TensorSize, it.cfg.PipelineSize)
		}
		end()
		if err != nil {
			return err
		}
		end = span("core.comm_cost")
		_, err = pl.CommunicationCost(plan)
		end()
		if err != nil {
			return err
		}
		p.probeWorld(i, topo, plan.Degrees, options)
		if it.op == "search" {
			cells := pl.SearchSpace()
			end := p.rec.Begin("core.bound", "probe", i)
			for _, c := range cells {
				if _, err := trainer.ThroughputUpperBound(trainer.Config{
					Topo: topo, Spec: spec, TensorSize: c.T, PipelineSize: c.P, Framework: fw, Opt: opt,
				}); err != nil {
					return err
				}
			}
			p.boundTime += end()
			p.boundCells += len(cells)
			if _, err := p.simulate(i, "probe", trainer.Config{
				Topo: topo, Spec: spec, TensorSize: plan.Degrees.T, PipelineSize: plan.Degrees.P,
				Framework: fw, Opt: opt, Engine: shard,
			}); err != nil {
				return err
			}
		}
	case "simulate":
		rep, err := p.simulate(i, "layers", trainer.Config{
			Topo: topo, Spec: spec, TensorSize: it.cfg.TensorSize, PipelineSize: it.cfg.PipelineSize,
			Framework: fw, Opt: opt, Scenario: it.cfg.Scenario, Engine: shard,
		})
		if err != nil {
			return err
		}
		p.events = append(p.events, float64(rep.ScenarioEvents))
		p.probeWorld(i, topo, rep.Degrees, options)
	default:
		return fmt.Errorf("unknown op %q", it.op)
	}
	p.replica.StoreResponse(key, it.resp)
	return nil
}

// decode parses a request the way the handler does.
func decode(r request) ([]item, error) {
	var items []item
	switch r.Path {
	case "/v1/plan/batch":
		var env api.BatchRequest
		if err := json.Unmarshal(r.Body, &env); err != nil {
			return nil, err
		}
		for _, it := range env.Items {
			cfg, err := config.Load(bytes.NewReader(it.Config))
			if err != nil {
				return nil, err
			}
			items = append(items, item{op: it.Op, cfg: cfg})
		}
		return items, nil
	case "/v1/plan", "/v1/search", "/v1/simulate":
		cfg, err := config.Load(bytes.NewReader(r.Body))
		if err != nil {
			return nil, err
		}
		return []item{{op: strings.TrimPrefix(r.Path, "/v1/"), cfg: cfg}}, nil
	}
	return nil, fmt.Errorf("no layer path for %s", r.Path)
}

// answers pairs each operation with the handler's answer for it, in the
// API's response types, and returns the whole answer to encode. This is
// bookkeeping of the replay, not a step of the handler, and is untimed.
func answers(r request, items []item, answer []byte) (any, error) {
	if r.Path == "/v1/plan/batch" {
		var resp api.BatchResponse
		if err := json.Unmarshal(answer, &resp); err != nil {
			return nil, err
		}
		if len(resp.Results) != len(items) {
			return nil, fmt.Errorf("batch of %d items answered %d", len(items), len(resp.Results))
		}
		for k := range items {
			res := resp.Results[k]
			switch items[k].op {
			case "plan":
				items[k].resp = res.Plan
			case "search":
				items[k].resp = res.Search
			case "simulate":
				items[k].resp = res.Simulate
			}
		}
		return &resp, nil
	}
	var resp any
	switch items[0].op {
	case "plan":
		resp = new(api.PlanResponse)
	case "search":
		resp = new(api.SearchResponse)
	default:
		resp = new(api.SimulateResponse)
	}
	items[0].resp = resp
	return resp, json.Unmarshal(answer, resp)
}

// layered is the layer-by-layer path of one request.
func (p *pass) layered(i int, r request, answer []byte) error {
	span := func(name string) func() time.Duration { return p.rec.Begin(name, "layers", i) }
	end := span("api.decode")
	items, err := decode(r)
	end()
	if err != nil {
		return err
	}
	resp, err := answers(r, items, answer)
	if err != nil {
		return err
	}
	end = span("serve.admit")
	release, ok := p.replica.Admit(context.Background())
	end()
	if !ok {
		return fmt.Errorf("admission refused")
	}
	for _, it := range items {
		if err := p.compute(i, it); err != nil {
			release()
			return err
		}
	}
	release()
	end = span("api.encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	end()
	return err
}

// run replays one request through the handler, then through the layers.
func (p *pass) run(i int, r request) {
	endReq := p.rec.Begin("request", "", i)
	defer endReq()
	end := p.rec.Begin("api.handler", "request", i)
	w := httptest.NewRecorder()
	p.handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body)))
	end()
	if w.Code != http.StatusOK {
		p.fail(fmt.Errorf("%s: handler answered %d: %.200s", r.Path, w.Code, w.Body.String()))
		return
	}
	end = p.rec.Begin("layers", "request", i)
	err := p.layered(i, r, w.Body.Bytes())
	end()
	if err != nil {
		p.fail(fmt.Errorf("%s: %w", r.Path, err))
	}
}

func readOps(path string) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []request
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var r request
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		ops = append(ops, r)
	}
	return ops, sc.Err()
}

func median(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return float64(m) / float64(unit)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func main() {
	opsFile := flag.String("ops", "", "requests to replay, one JSON object per line")
	seconds := flag.Float64("seconds", 10, "replay time budget")
	traceOut := flag.String("trace-out", "", "write the Chrome trace here")
	flag.Parse()
	ops, err := readOps(*opsFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
	p := &pass{
		rec:     spans.New(),
		handler: api.NewServerPool(serve.New(serve.Config{})).Handler(),
		replica: serve.New(serve.Config{}),
		probe:   engine.New(engine.Config{CacheSize: -1}),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	deadline := start.Add(time.Duration(*seconds * float64(time.Second)))
	n := 0
	for n < len(ops) && time.Now().Before(deadline) {
		p.run(n, ops[n])
		runtime.ReadMemStats(&ms)
		p.heapPeak = max(p.heapPeak, ms.HeapAlloc)
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)

	all := p.rec.Durations()
	var covered, handled time.Duration
	for _, d := range p.rec.Durations("layers") {
		for _, x := range d {
			covered += x
		}
	}
	for _, x := range all["api.handler"] {
		handled += x
	}
	boundPerCell := 0.0
	if p.boundCells > 0 {
		boundPerCell = float64(p.boundTime) / float64(time.Microsecond) / float64(p.boundCells)
	}
	coverage := 0.0
	if handled > 0 {
		coverage = float64(covered) / float64(handled)
	}
	layer := map[string]float64{
		"api.handler_us":          median(all["api.handler"], time.Microsecond),
		"api.decode_us":           median(all["api.decode"], time.Microsecond),
		"api.encode_us":           median(all["api.encode"], time.Microsecond),
		"serve.admit_wait_us":     median(all["serve.admit"], time.Microsecond),
		"engine.world_build_ms":   median(p.worldBuild, time.Millisecond),
		"core.search_ms":          median(all["core.search"], time.Millisecond),
		"core.bound_us_per_cell":  boundPerCell,
		"trainer.simulate_ms":     median(all["trainer.simulate"], time.Millisecond),
		"trainer.allocs_per_sim":  mean(p.allocs),
		"trainer.bytes_per_sim":   mean(p.bytes),
		"scenario.events_per_sim": mean(p.events),
		"scenario.validate_us":    median(all["scenario.validate"], time.Microsecond),
		"topology.build_us":       median(all["topology.build"], time.Microsecond),
		"topology.fingerprint_us": median(all["topology.fingerprint"], time.Microsecond),
		"go.gc_cycles":            float64(ms.NumGC - gc0),
		"go.heap_peak_mb":         float64(p.heapPeak) / (1 << 20),
		"trace.coverage_ratio":    coverage,
	}
	if *traceOut != "" {
		if err := p.rec.WriteChrome(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
			os.Exit(1)
		}
	}
	if p.firstFail != "" {
		fmt.Fprintf(os.Stderr, "layers: first failure: %s\n", p.firstFail)
	}
	out, err := json.Marshal(map[string]any{
		"ops": n, "failed": p.failed, "elapsed_s": elapsed.Seconds(), "layer": layer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
