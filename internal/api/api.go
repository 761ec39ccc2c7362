// Package api is the JSON/HTTP surface of the Holmes scheduler
// (cmd/holmes-serve): a handler layer over a serve.Pool of engine
// shards. Every request is admitted through the pool's gate (saturation
// answers 429 with Retry-After), routed to the shard owning its topology
// fingerprint, and — for deterministic plan/search work — coalesced with
// identical in-flight requests so duplicate traffic costs one
// computation, and a byte-identical repeat is answered its stored bytes
// before any decode (see DESIGN.md decision 8).
//
// Routes:
//
//	GET  /                     embedded live dashboard (go:embed, no build step)
//	GET  /healthz              liveness + engine cache statistics + serving counters
//	GET  /v1/stats             per-endpoint latency/throughput counters
//	GET  /v1/events            live event stream (Server-Sent Events)
//	POST /v1/plan              plan fixed (t, p) degrees
//	POST /v1/plan/batch        up to 256 heterogeneous plan/search/simulate items
//	POST /v1/search            joint (t, p) search for the best plan
//	POST /v1/simulate          one iteration, optionally under a scenario
//	POST /v1/experiments/{id}  regenerate a paper table/figure
//	POST /v1/jobs              submit a job to the fleet scheduler
//	GET  /v1/jobs              every fleet's deterministic schedule
//	GET  /v1/jobs/{id}         one job's placement  (DELETE cancels)
//
// Request bodies reuse the config.Config schema of cmd/holmes-sim
// (clusters or the env/nodes shorthand, model group or explicit
// architecture, framework, component toggles). Every response — errors
// included, on every route — is JSON with Content-Type
// application/json.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"holmes/internal/config"
	"holmes/internal/core"
	"holmes/internal/dashboard"
	"holmes/internal/engine"
	"holmes/internal/events"
	"holmes/internal/experiments"
	"holmes/internal/serve"
	"holmes/internal/trainer"
)

// Version identifies the API release (mirrors the facade version).
const Version = "1.7.0"

// Server serves the Holmes planning API on a pool of engine shards.
type Server struct {
	pool   *serve.Pool
	fleets fleetRegistry
	// events is the live-observability hub: operators publish into it,
	// /v1/events streams it. Owned by the server for its whole life.
	events *events.Hub
	// draining answers 429 on every admission-gated route while the
	// process drains in-flight work before shutdown (SetDraining).
	draining atomic.Bool
	// pprofEnabled mounts net/http/pprof under /debug/pprof/ (EnablePprof;
	// must be set before Handler is called).
	pprofEnabled bool
	// dashboardEnabled mounts the embedded dashboard at / and /static/
	// (EnableDashboard; must be set before Handler is called). On by
	// default: the dashboard is static bytes with zero cost when unused.
	dashboardEnabled bool
}

// NewServer returns a single-shard server on the given engine (nil = the
// shared default engine) — the pre-sharding constructor, kept for
// embedders that manage their own engine.
func NewServer(eng *engine.Engine) *Server {
	return NewServerPool(serve.FromEngine(eng))
}

// NewServerPool returns a server on an explicit shard pool (nil = one
// default pool), the constructor cmd/holmes-serve uses.
func NewServerPool(p *serve.Pool) *Server {
	if p == nil {
		p = serve.New(serve.Config{})
	}
	s := &Server{pool: p, events: events.NewHub(), dashboardEnabled: true}
	s.fleets.init()
	return s
}

// Pool exposes the server's shard pool (observability and tests).
func (s *Server) Pool() *serve.Pool { return s.pool }

// Events exposes the live event hub (operators publish into it; the
// shutdown path closes it to release every streaming client).
func (s *Server) Events() *events.Hub { return s.events }

// Handler returns the route table. Routes are registered without method
// patterns and checked in the instrumentation wrapper, so a wrong method
// gets a JSON 405 (the stock mux answers text/plain, which breaks
// clients that unconditionally json-decode error bodies).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.route(epHealthz, http.MethodGet, false, s.handleHealthz))
	mux.HandleFunc("/v1/stats", s.route(epStats, http.MethodGet, false, s.handleStats))
	// The event stream and the dashboard are observability surfaces:
	// admission-exempt like healthz/stats, because a saturated or
	// draining server is exactly what they exist to show.
	mux.HandleFunc("/v1/events", s.route(epEvents, http.MethodGet, false, s.handleEvents))
	if s.dashboardEnabled {
		mux.HandleFunc("/{$}", s.route(epDashboard, http.MethodGet, false, s.handleDashboardIndex))
		mux.HandleFunc("/static/", s.route(epDashboard, http.MethodGet, false, s.handleDashboardAsset))
	}
	mux.HandleFunc("/v1/plan", s.route(epPlan, http.MethodPost, true, configRoute(s, epPlan, s.runPlan)))
	mux.HandleFunc("/v1/plan/batch", s.route(epBatch, http.MethodPost, true, s.handleBatch))
	mux.HandleFunc("/v1/search", s.route(epSearch, http.MethodPost, true, configRoute(s, epSearch, s.runSearch)))
	mux.HandleFunc("/v1/simulate", s.route(epSimulate, http.MethodPost, true, configRoute(s, epSimulate, s.runSimulate)))
	mux.HandleFunc("/v1/experiments/{id}", s.route(epExperiments, http.MethodPost, true, s.handleExperiment))
	mux.HandleFunc("/v1/jobs", s.routeMethods(epJobs, true, map[string]http.HandlerFunc{
		http.MethodPost: s.handleJobSubmit,
		http.MethodGet:  s.handleJobsList,
	}))
	mux.HandleFunc("/v1/jobs/{id}", s.routeMethods(epJob, true, map[string]http.HandlerFunc{
		http.MethodGet:    s.handleJobGet,
		http.MethodDelete: s.handleJobCancel,
	}))
	if s.pprofEnabled {
		// Profiling rides outside admission like the other observability
		// routes: an operator must be able to profile a saturated server.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", s.handleNotFound)
	return mux
}

// EnablePprof mounts net/http/pprof on the handler returned by the next
// Handler call. Off by default: profiling endpoints leak operational
// detail and belong behind an explicit operator flag.
func (s *Server) EnablePprof(on bool) { s.pprofEnabled = on }

// EnableDashboard controls whether the next Handler call mounts the
// embedded dashboard at / and /static/. On by default; an API-only
// deployment turns it off and / answers the JSON 404 like any other
// unknown path.
func (s *Server) EnableDashboard(on bool) { s.dashboardEnabled = on }

// handleDashboardIndex serves the embedded dashboard page at exactly /.
func (s *Server) handleDashboardIndex(w http.ResponseWriter, r *http.Request) {
	body, ctype, ok := dashboard.Asset("static/index.html")
	if !ok {
		writeError(w, http.StatusInternalServerError, "dashboard index missing from embedded assets")
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleDashboardAsset serves the embedded /static/ files. Misses
// answer the API's JSON 404, keeping the every-error-is-JSON contract.
func (s *Server) handleDashboardAsset(w http.ResponseWriter, r *http.Request) {
	body, ctype, ok := dashboard.Asset(strings.TrimPrefix(r.URL.Path, "/"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such asset: %s", r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// SetDraining flips drain mode: while draining, every admission-gated
// route answers 429 with Retry-After so load balancers move new work to
// other replicas, while in-flight requests (and the observability
// routes) keep working. The graceful-shutdown path of cmd/holmes-serve
// sets it just before http.Server.Shutdown.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports whether drain mode is on.
func (s *Server) Draining() bool { return s.draining.Load() }

// Endpoint names as they appear in /v1/stats.
const (
	epHealthz     = "healthz"
	epStats       = "stats"
	epPlan        = "plan"
	epBatch       = "plan_batch"
	epSearch      = "search"
	epSimulate    = "simulate"
	epExperiments = "experiments"
	epJobs        = "jobs"
	epJob         = "job"
	epEvents      = "events"
	epDashboard   = "dashboard"
)

// statusWriter records the status a handler wrote so the stats layer can
// classify the outcome.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flusher — the SSE handler streams through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route wraps a handler with method enforcement, admission control, and
// per-endpoint accounting. Observability routes (healthz, stats) skip
// admission: they must answer even — especially — when the pool is
// saturated.
func (s *Server) route(name, method string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	return s.routeMethods(name, admit, map[string]http.HandlerFunc{method: h})
}

// routeMethods is route for endpoints serving several methods on one
// path (the jobs routes take GET and POST/DELETE).
func (s *Server) routeMethods(name string, admit bool, methods map[string]http.HandlerFunc) http.HandlerFunc {
	ep := s.pool.Stats().Endpoint(name)
	allowed := make([]string, 0, len(methods))
	for m := range methods {
		allowed = append(allowed, m)
	}
	sort.Strings(allowed)
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		done := ep.Begin()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() { done(sw.status) }()
		h, ok := methods[r.Method]
		// HEAD rides along with GET (the stock mux's method patterns allow
		// it too, and uptime probes health-check with HEAD).
		if !ok && r.Method == http.MethodHead {
			h, ok = methods[http.MethodGet]
		}
		if !ok {
			sw.Header().Set("Allow", allow)
			writeError(sw, http.StatusMethodNotAllowed, "method %s not allowed on this endpoint (use %s)", r.Method, allow)
			return
		}
		if admit {
			if s.draining.Load() {
				retry := int(s.pool.RetryAfter().Seconds() + 0.5)
				if retry < 1 {
					retry = 1
				}
				sw.Header().Set("Retry-After", strconv.Itoa(retry))
				writeError(sw, http.StatusTooManyRequests, "server draining for shutdown, retry after %ds", retry)
				return
			}
			release, ok := s.pool.Admit(r.Context())
			if !ok {
				retry := int(s.pool.RetryAfter().Seconds() + 0.5)
				if retry < 1 {
					retry = 1
				}
				sw.Header().Set("Retry-After", strconv.Itoa(retry))
				writeError(sw, http.StatusTooManyRequests, "server saturated: admission queue full, retry after %ds", retry)
				return
			}
			defer release()
		}
		h(sw, r)
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "no such endpoint: %s %s", r.Method, r.URL.Path)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// apiError carries the HTTP status a failed operation maps to, so the
// single-request handlers and the batch executor classify errors
// identically.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errStatus maps an operation error to its HTTP status (500 for anything
// that did not come through errf — by construction nothing should).
func errStatus(err error) int {
	if ae, ok := err.(*apiError); ok {
		return ae.status
	}
	return http.StatusInternalServerError
}

// HealthResponse reports liveness and engine observability.
type HealthResponse struct {
	Status      string                   `json:"status"`
	Version     string                   `json:"version"`
	Shards      int                      `json:"shards"`
	Concurrency int                      `json:"concurrency"`
	Cache       engine.CacheStats        `json:"cache"`
	PlanCache   engine.CacheStats        `json:"plan_cache"`
	Responses   serve.ResponseCacheStats `json:"responses"`
	Search      engine.SearchStats       `json:"search"`
	Serve       serve.StatsSnapshot      `json:"serve"`
	Events      events.HubStats          `json:"events"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Version:     Version,
		Shards:      s.pool.Shards(),
		Concurrency: s.pool.Concurrency(),
		Cache:       s.pool.CacheStats(),
		PlanCache:   s.pool.PlanCacheStats(),
		Responses:   s.pool.ResponseCacheStats(),
		Search:      s.pool.SearchStats(),
		Serve:       s.pool.Stats().Snapshot(),
		Events:      s.events.Stats(),
	})
}

// StatsResponse is the outcome of /v1/stats.
type StatsResponse struct {
	Version string `json:"version"`
	Shards  int    `json:"shards"`
	// InFlight/Queued/Rejected describe the admission gate right now;
	// per-endpoint counters live under Serve.
	InFlight int    `json:"in_flight"`
	Queued   int    `json:"queued"`
	Rejected uint64 `json:"rejected"`
	// Canceled counts clients that aborted while waiting for admission —
	// kept apart from Rejected so rising numbers point at client
	// timeouts, not an undersized gate.
	Canceled  uint64                   `json:"canceled"`
	Cache     engine.CacheStats        `json:"cache"`
	PlanCache engine.CacheStats        `json:"plan_cache"`
	Responses serve.ResponseCacheStats `json:"responses"`
	Search    engine.SearchStats       `json:"search"`
	Serve     serve.StatsSnapshot      `json:"serve"`
	Events    events.HubStats          `json:"events"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	inFlight, queued, rejected, canceled := s.pool.Gate()
	writeJSON(w, http.StatusOK, StatsResponse{
		Version:   Version,
		Shards:    s.pool.Shards(),
		InFlight:  inFlight,
		Queued:    queued,
		Rejected:  rejected,
		Canceled:  canceled,
		Cache:     s.pool.CacheStats(),
		PlanCache: s.pool.PlanCacheStats(),
		Responses: s.pool.ResponseCacheStats(),
		Search:    s.pool.SearchStats(),
		Serve:     s.pool.Stats().Snapshot(),
		Events:    s.events.Stats(),
	})
}

// DegreesJSON is the (t, p, d) triple of a plan.
type DegreesJSON struct {
	Tensor   int `json:"tensor"`
	Pipeline int `json:"pipeline"`
	Data     int `json:"data"`
}

// ReportJSON carries the simulated performance of a plan.
type ReportJSON struct {
	TFLOPS          float64 `json:"tflops_per_gpu"`
	Throughput      float64 `json:"samples_per_sec"`
	IterSeconds     float64 `json:"iteration_seconds"`
	ReduceScatterMs float64 `json:"reduce_scatter_ms"`
	MicroBatches    int     `json:"micro_batches"`
}

// PlanResponse is the outcome of /v1/plan and the winner part of
// /v1/search.
type PlanResponse struct {
	Degrees   DegreesJSON `json:"degrees"`
	Partition string      `json:"partition"`
	Report    ReportJSON  `json:"report"`
	// DPGroupsByNIC counts data-parallel groups per selected NIC.
	DPGroupsByNIC map[string]int `json:"dp_groups_by_nic"`
	// CommBytes is the per-kind estimated communication volume (bytes).
	CommBytes map[string]float64 `json:"comm_bytes"`
}

func planResponse(pl *core.Planner, plan *core.Plan) (*PlanResponse, error) {
	costs, err := pl.CommunicationCost(plan)
	if err != nil {
		return nil, err
	}
	commBytes := make(map[string]float64, len(costs))
	for kind, b := range costs {
		commBytes[kind.String()] = b
	}
	nics := make(map[string]int)
	for _, g := range plan.World.DPGroups {
		nics[g.NIC.String()]++
	}
	return &PlanResponse{
		Degrees:   DegreesJSON{Tensor: plan.Degrees.T, Pipeline: plan.Degrees.P, Data: plan.Degrees.D},
		Partition: plan.Partition.String(),
		Report: ReportJSON{
			TFLOPS:          plan.Report.TFLOPS,
			Throughput:      plan.Report.Throughput,
			IterSeconds:     plan.Report.IterSeconds,
			ReduceScatterMs: plan.Report.ReduceScatterSeconds * 1000,
			MicroBatches:    plan.Report.Micro,
		},
		DPGroupsByNIC: nics,
		CommBytes:     commBytes,
	}, nil
}

// maxBodyBytes bounds a single-request body; configs are a few hundred
// bytes.
const maxBodyBytes = 1 << 20

// maxNodes bounds the topology one request may ask the shared daemon to
// materialize: the simulator handles hundreds of nodes comfortably, but
// an unbounded count would let a single request allocate the whole
// process away from every other tenant.
const maxNodes = 512

// maxScenarioEvents bounds one request's event timeline; real fault
// scripts are a handful of events.
const maxScenarioEvents = 256

// maxMicroBatches bounds global_batch / micro_batch, the micro-batches a
// request's data-parallel replicas share. A simulation's cost is linear
// in micro-batches, so without it one small body could hold a shard for
// hours; 4096 is 5x the largest in-repo use (GPT-39B, 1536 / 2 = 768).
const maxMicroBatches = 4096

// checkBounds applies the server-side resource limits to a parsed
// config; single requests and batch items share it.
func checkBounds(c *config.Config) error {
	nodes := c.Nodes
	for _, cl := range c.Clusters {
		nodes += cl.Nodes
	}
	if nodes > maxNodes {
		return fmt.Errorf("api: %d nodes exceeds the per-request limit of %d", nodes, maxNodes)
	}
	if c.Scenario != nil && len(c.Scenario.Events) > maxScenarioEvents {
		return fmt.Errorf("api: %d scenario events exceeds the per-request limit of %d", len(c.Scenario.Events), maxScenarioEvents)
	}
	if err := checkModel(c.Model); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	return nil
}

// checkModel bounds the micro-batches a model asks for; /v1/jobs applies
// it to each submitted job's model. It reads only the batch sizes: the
// rest of the model is validated where the spec is resolved.
func checkModel(m config.ModelConfig) error {
	if n := m.MicroBatches(); n > maxMicroBatches {
		return fmt.Errorf("model asks for %d micro-batches, over the per-request limit of %d", n, maxMicroBatches)
	}
	return nil
}

// decodeStatus classifies a request-decoding error: a body that blew the
// MaxBytesReader limit is 413, anything else is a plain bad request.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// badBody is the error of a body that does not decode, with the status
// decodeStatus gives it.
func badBody(err error) error {
	return &apiError{status: decodeStatus(err), msg: err.Error()}
}

// decode parses a config.Config request body strictly and applies the
// server-side resource bounds; its errors are badBody's.
func decode(body io.Reader) (*config.Config, error) {
	c, err := config.Load(body)
	if err == nil {
		err = checkBounds(c)
	}
	if err != nil {
		return nil, badBody(err)
	}
	return c, nil
}

// coalesceKey canonicalizes a parsed config into the single-flight key
// for op. Two requests that parse to the same configuration — regardless
// of their wire formatting — share one computation.
func coalesceKey(op string, c *config.Config) string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a plain data struct; Marshal cannot fail. Fall back
		// to never coalescing rather than panicking in the hot path.
		return ""
	}
	return op + "\x00" + string(b)
}

// sighting is what the canonical lookup of one answer saw: the key the
// answer is cached under, and whether it was asked for before — found in
// the response cache or shared with an identical in-flight request.
type sighting struct {
	key   string
	again bool
}

// coalesce answers one deterministic operation with at most one
// computation per distinct (op, config): completed answers replay from
// the pool's response cache, identical in-flight requests share the
// leader's result, and only genuinely new work runs fn. Sharers are
// credited to the endpoint's counters, and seen records what the lookup
// saw. The resp type parameter keeps the any-typed plumbing out of the
// callers.
func coalesce[T any](s *Server, ep string, op string, c *config.Config, seen *sighting, fn func() (*T, error)) (*T, error) {
	key := coalesceKey(op, c)
	if key == "" {
		return fn()
	}
	seen.key = key
	if v, ok := s.pool.CachedResponse(key); ok {
		s.pool.Stats().Endpoint(ep).Cached()
		seen.again = true
		return v.(*T), nil
	}
	v, coalesced, err := s.pool.Coalesce(key, func() (any, error) { return fn() })
	if coalesced {
		s.pool.Stats().Endpoint(ep).Coalesced()
	}
	if err != nil {
		return nil, err
	}
	seen.again = coalesced
	// Only successful answers are cacheable; errors stay cheap to retry
	// and must not shadow a later feasible answer (they can't — the key
	// pins the config — but an error cache would still pin allocation).
	s.pool.StoreResponse(key, v)
	return v.(*T), nil
}

// plannerFor builds a request-scoped planner on the shard owning the
// config's topology.
func (s *Server) plannerFor(c *config.Config) (*core.Planner, error) {
	topo, spec, fw, opt, err := c.Components()
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlannerOn(s.pool.ShardFor(topo.Fingerprint()), topo, spec)
	if err != nil {
		return nil, err
	}
	pl.Framework = fw
	pl.Opt = opt
	return pl, nil
}

// runPlan executes one plan request (shared by /v1/plan and batch
// items), recording its canonical lookup in seen. Errors are *apiError
// carrying the HTTP status.
func (s *Server) runPlan(ep string, c *config.Config, seen *sighting) (*PlanResponse, error) {
	if c.TensorSize < 1 || c.PipelineSize < 1 {
		return nil, errf(http.StatusBadRequest, "plan needs tensor_size >= 1 and pipeline_size >= 1 (use /v1/search to search degrees)")
	}
	if !c.Scenario.Empty() {
		return nil, errf(http.StatusBadRequest, "plan evaluates a pristine fabric; use /v1/simulate to run under a scenario")
	}
	return coalesce(s, ep, "plan", c, seen, func() (*PlanResponse, error) {
		pl, err := s.plannerFor(c)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		plan, err := pl.Plan(c.TensorSize, c.PipelineSize)
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%v", err)
		}
		resp, err := planResponse(pl, plan)
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%v", err)
		}
		return resp, nil
	})
}

// SimulateResponse is the outcome of /v1/simulate.
type SimulateResponse struct {
	Degrees   DegreesJSON `json:"degrees"`
	Partition string      `json:"partition"`
	Report    ReportJSON  `json:"report"`
	// Scenario labels the event timeline the iteration ran under ("" =
	// pristine); ScenarioEvents counts the events that fired before the
	// iteration completed.
	Scenario       string `json:"scenario,omitempty"`
	ScenarioEvents int    `json:"scenario_events,omitempty"`
}

// runSimulate executes one simulate request (shared by /v1/simulate and
// batch items): one training iteration, optionally under a scripted
// scenario, reported in the paper's metrics. Unlike a plan it never
// builds a Planner: the degrees are the caller's to fix, and the fabric
// carries whatever the scenario scripts onto it. Simulations are
// deterministic too, so identical in-flight requests coalesce just like
// plans; seen records the canonical lookup.
func (s *Server) runSimulate(ep string, c *config.Config, seen *sighting) (*SimulateResponse, error) {
	if c.TensorSize < 1 || c.PipelineSize < 1 {
		return nil, errf(http.StatusBadRequest, "simulate needs tensor_size >= 1 and pipeline_size >= 1")
	}
	return coalesce(s, ep, "simulate", c, seen, func() (*SimulateResponse, error) {
		tc, err := c.TrainerConfig()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		tc.Engine = s.pool.ShardFor(tc.Topo.Fingerprint())
		rep, err := trainer.Simulate(tc)
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%v", err)
		}
		return &SimulateResponse{
			Degrees:   DegreesJSON{Tensor: rep.Degrees.T, Pipeline: rep.Degrees.P, Data: rep.Degrees.D},
			Partition: rep.Partition.String(),
			Report: ReportJSON{
				TFLOPS:          rep.TFLOPS,
				Throughput:      rep.Throughput,
				IterSeconds:     rep.IterSeconds,
				ReduceScatterMs: rep.ReduceScatterSeconds * 1000,
				MicroBatches:    rep.Micro,
			},
			Scenario:       rep.Scenario,
			ScenarioEvents: rep.ScenarioEvents,
		}, nil
	})
}

// SearchResponse is the outcome of /v1/search.
type SearchResponse struct {
	Winner PlanResponse `json:"winner"`
	// CellsExplored counts the feasible (t, p) cells of the search space,
	// listed in Cells — every candidate the search weighed, most of them
	// pruned by the bound without simulating (the /v1/stats search block
	// counts how each fared).
	CellsExplored int           `json:"cells_explored"`
	Cells         []DegreesJSON `json:"cells"`
}

// runSearch executes one joint-search request (shared by /v1/search and
// batch items), recording its canonical lookup in seen.
func (s *Server) runSearch(ep string, c *config.Config, seen *sighting) (*SearchResponse, error) {
	if c.TensorSize != 0 || c.PipelineSize != 0 {
		return nil, errf(http.StatusBadRequest, "search picks tensor_size and pipeline_size itself; omit them (use /v1/plan for fixed degrees)")
	}
	if !c.Scenario.Empty() {
		return nil, errf(http.StatusBadRequest, "search evaluates a pristine fabric; use /v1/simulate to run under a scenario")
	}
	return coalesce(s, ep, "search", c, seen, func() (*SearchResponse, error) {
		pl, err := s.plannerFor(c)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		space := pl.SearchSpace()
		best, err := pl.SearchPlan()
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%v", err)
		}
		winner, err := planResponse(pl, best)
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%v", err)
		}
		resp := &SearchResponse{Winner: *winner, CellsExplored: len(space)}
		for _, d := range space {
			resp.Cells = append(resp.Cells, DegreesJSON{Tensor: d.T, Pipeline: d.P, Data: d.D})
		}
		return resp, nil
	})
}

// ExperimentResponse is the outcome of /v1/experiments/{id}.
type ExperimentResponse struct {
	Experiment string            `json:"experiment"`
	Rows       []experiments.Row `json:"rows"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validExperiment(id) {
		// Unknown id is a routing miss (404), not a malformed request.
		writeError(w, http.StatusNotFound, "unknown experiment %q (have %v)", id, experiments.Names)
		return
	}
	rows, err := experiments.NewSuite(s.pool.ShardFor("experiment:" + id)).Run(id)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{Experiment: id, Rows: rows})
}

func validExperiment(id string) bool {
	for _, name := range experiments.Names {
		if id == name {
			return true
		}
	}
	return false
}
