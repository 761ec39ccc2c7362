// Command benchmark is the repository benchmark: it drives four seeded
// workloads end to end against the real holmes-serve daemon and the
// holmes fleet facade, checks every answer, prints every metric by name
// with its unit, and writes a result file per run.
//
//	go run . -workload cold-search -seed 1 -seconds 20      # one workload
//	go run . -seed 1                                         # all four
//	go run . -workload scenario-sim -seed 1 -trace 1         # traced per-layer run
//	go run . compare PARENT_DIR CHANGE_DIR                   # judge two run sets
//
// run.sh at this directory builds and runs it with every build output
// kept under .bench_build at the repository root; see README.md.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// End-to-end metrics, reported by every workload on untraced runs.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p95_ms":   "ms",
	"throughput_ops_s": "ops/s",
	"peak_rss_mb":      "MiB",
}

// Per-layer metrics, reported by every workload on traced runs; a layer
// a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"api.handler_us":              "us",
	"api.decode_us":               "us",
	"api.encode_us":               "us",
	"serve.response_hit_ratio":    "ratio",
	"serve.coalesced_ratio":       "ratio",
	"serve.rejected_ratio":        "ratio",
	"serve.admit_wait_us":         "us",
	"engine.world_hit_ratio":      "ratio",
	"engine.world_build_ms":       "ms",
	"engine.plan_cache_hit_ratio": "ratio",
	"core.search_ms":              "ms",
	"core.bound_us_per_cell":      "us",
	"core.simulated_ratio":        "ratio",
	"core.pruned_ratio":           "ratio",
	"core.aborted_ratio":          "ratio",
	"core.cells_per_search":       "count",
	"trainer.simulate_ms":         "ms",
	"trainer.allocs_per_sim":      "count",
	"trainer.bytes_per_sim":       "bytes",
	"scenario.events_per_sim":     "count",
	"scenario.validate_us":        "us",
	"topology.build_us":           "us",
	"topology.fingerprint_us":     "us",
	"topology.carve_us":           "us",
	"fleet.mutate_us":             "us",
	"fleet.poll_ms":               "ms",
	"fleet.searches_per_poll":     "count",
	"fleet.replay_ms":             "ms",
	"loadgen.timer_late_p99_ms":   "ms",
	"loadgen.conn_wait_p99_ms":    "ms",
	"go.gc_cycles":                "count",
	"go.heap_peak_mb":             "MiB",
	"trace.overhead_ratio":        "ratio",
	"trace.coverage_ratio":        "ratio",
}

// outcome is what one workload run produced. Fleet-churn runs in a child
// process and hands its outcome back as JSON.
type outcome struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstFail string             `json:"first_fail,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// Extra holds numbers beyond the contract metrics (tail percentiles,
	// the capacity ladder, the failed ratio) for the result file.
	Extra  map[string]float64 `json:"extra,omitempty"`
	Counts map[string]int     `json:"counts,omitempty"`
	Phases map[string]float64 `json:"phases_s,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{
		E2E: map[string]float64{}, Layer: map[string]float64{}, Extra: map[string]float64{},
		Counts: map[string]int{}, Phases: map[string]float64{},
	}
}

// absorb adds a load driver's attempts and failures.
func (o *outcome) absorb(r loopResult) {
	o.Attempted += r.attempted
	o.Failed += r.failed
	if o.FirstFail == "" {
		o.FirstFail = r.firstFail
	}
}

// problem records an answer-check failure that makes the run incorrect.
func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// env is what every workload run needs.
type env struct {
	root    string // repository root
	seed    uint64
	seconds float64
	trace   bool
	daemon  string // holmes-serve binary
	layers  string // traced-pass binary (traced runs only)
	scratch string // per-run scratch directory under .bench_build
	// traceFile receives a traced run's Chrome trace.
	traceFile string
}

// clientConns is how many connections the load generator holds to the
// daemon. It is one: the generator shares the host's cores with the
// daemon, and on a 2-vCPU host a second request in flight made every
// timing follow the scheduler rather than the program.
const clientConns = 1

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"cold-search", runColdSearch},
	{"scenario-sim", runScenarioSim},
	{"serve-mix", runServeMix},
	{"fleet-churn", runFleetChurn},
}

// findRoot walks up from the working directory to the repository root:
// the directory holding go.mod and cmd/holmes-serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "holmes-serve")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with go.mod and cmd/holmes-serve) above the working directory")
		}
		dir = parent
	}
}

// header describes the host and the build a result came from.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
	Seconds    float64 `json:"run_seconds"`
	Conns      int     `json:"max_connections"`
}

func hostHeader(root string, seconds float64, conns int) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Commit: "unknown", Started: time.Now().UTC().Format(time.RFC3339),
		Seconds: seconds, Conns: conns,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// result is one run's result file.
type result struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Header       header             `json:"header"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailedRatio  float64            `json:"failed_ratio"`
	FirstFail    string             `json:"first_fail,omitempty"`
	Problems     []string           `json:"problems,omitempty"`
	Digest       string             `json:"digest,omitempty"`
	PinnedDigest string             `json:"pinned_digest,omitempty"`
	Metrics      map[string]metric  `json:"metrics"`
	Extra        map[string]float64 `json:"extra,omitempty"`
	Counts       map[string]int     `json:"input_counts,omitempty"`
	Phases       map[string]float64 `json:"phases_s,omitempty"`
}

// pinned is the answer digests baseline.json pins: untraced seed-1
// runs of the given length. A run's work, and so its digest, follows
// from its seed and its seconds.
type pinned struct {
	Seed    uint64            `json:"seed"`
	Seconds float64           `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

func pinnedDigests(root string) (pinned, error) {
	var p pinned
	b, err := os.ReadFile(filepath.Join(root, "benchmark", "baseline.json"))
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(b, &p); err != nil {
		return p, fmt.Errorf("baseline.json: %w", err)
	}
	return p, nil
}

// finish turns an outcome into the run's result: the contract metrics,
// correctness, and the pinned-digest comparison.
func finish(e *env, name string, o *outcome, hdr header, pin pinned) result {
	r := result{
		Workload: name, Seed: e.seed, Trace: e.trace, Header: hdr,
		Attempted: o.Attempted, Failed: o.Failed, FailedRatio: ratio(float64(o.Failed), float64(o.Attempted)),
		FirstFail: o.FirstFail, Problems: o.Problems, Digest: o.Digest,
		Metrics: map[string]metric{}, Extra: o.Extra, Counts: o.Counts, Phases: o.Phases,
	}
	units, values := e2eUnits, o.E2E
	if e.trace {
		units, values = layerUnits, o.Layer
	}
	for m, unit := range units {
		v, ok := values[m]
		if !ok {
			r.Problems = append(r.Problems, "metric "+m+" was not measured")
		}
		r.Metrics[m] = metric{Value: v, Unit: unit}
	}
	if want := pin.Digests[name]; want != "" && e.seed == pin.Seed && e.seconds == pin.Seconds && !e.trace {
		r.PinnedDigest = want
		if o.Digest != want {
			r.Problems = append(r.Problems, fmt.Sprintf("answer digest %s differs from the pinned digest %s", o.Digest, want))
		}
	}
	r.Correct = len(r.Problems) == 0 && o.Digest != ""
	if o.Digest == "" {
		r.Problems = append(r.Problems, "no answer digest")
	}
	return r
}

// report prints a result for people, then the one-line JSON summary.
func report(r result) {
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d correct=%v digest=%s\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct, r.Digest)
	if r.FirstFail != "" {
		fmt.Printf("  first failure: %s\n", r.FirstFail)
	}
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	extras := make([]string, 0, len(r.Extra))
	for n := range r.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Printf("  (%s %.6g)\n", n, r.Extra[n])
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

func writeResult(dir string, r result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace], time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "fleet-child":
			os.Exit(fleetChildMain(os.Args[2:]))
		}
	}
	var (
		name    = flag.String("workload", "", "workload to run: cold-search, scenario-sim, serve-mix, fleet-churn (empty = all four)")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives byte-identical inputs")
		seconds = flag.Float64("seconds", 20, "run length: each workload does a fixed amount of work sized to take about this long on the reference host")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file instead of end-to-end metrics")
		out     = flag.String("out", "", "directory for result files (default .bench_build/results at the repository root)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if err := run(selected, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// calibrate times a fixed CPU-bound task — SHA-256 over 4 MiB — three
// times. The shared host's speed drifts by tens of percent over minutes;
// a result file's calibration time tells such drift apart from a change
// in the program.
func calibrate() []float64 {
	buf := make([]byte, 4<<20)
	var ms []float64
	for range 3 {
		t0 := time.Now()
		sha256.Sum256(buf)
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return ms
}

// errIncorrect marks a run that finished but failed its checks.
var errIncorrect = errors.New("a run failed operations or answer checks")

func run(selected []workload, seed uint64, seconds float64, trace bool, out string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "results")
	}
	pin, err := pinnedDigests(root)
	if err != nil {
		return err
	}
	e := &env{
		root: root, seed: seed, seconds: seconds, trace: trace,
		daemon: filepath.Join(build, "bin", "holmes-serve"),
	}
	if err := goBuild(root, e.daemon, "./cmd/holmes-serve"); err != nil {
		return err
	}
	if trace {
		e.layers = filepath.Join(build, "bin", "holmes-layers")
		if err := goBuild(filepath.Join(root, "benchmark"), e.layers, "./layers"); err != nil {
			return err
		}
	}
	hdr := hostHeader(root, seconds, clientConns)
	bad := false
	for _, w := range selected {
		e.traceFile = filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		e.scratch, err = os.MkdirTemp(build, "run-")
		if err != nil {
			return err
		}
		before := calibrate()
		o, err := w.run(e)
		os.RemoveAll(e.scratch)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		o.Extra["host_calibration_ms"] = quantile(append(before, calibrate()...), 0.5)
		r := finish(e, w.name, o, hdr, pin)
		if err := writeResult(out, r); err != nil {
			return err
		}
		report(r)
		bad = bad || !r.Correct || r.Failed > 0
	}
	if bad {
		return errIncorrect
	}
	return nil
}
