package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"holmes/internal/fleet"
)

// The /v1/jobs surface is the fleet scheduler behind HTTP: clients
// submit jobs against a shared fleet topology, poll their placement, and
// cancel. Every fleet is a fleet.Operator — the deterministic
// fleet.Manager driven by a wall clock — so a zero submit time is
// stamped with the fleet's wall instant, finished work retires at idle
// barriers, and every transition is published on /v1/events. The
// schedule a poll observes is the deterministic replay of the fleet's
// live job set ordered by (submit, id): any interleaving of concurrent
// submissions converges to the same schedule as a sequential replay of
// the same trace.
//
// Durability is where the journal goes, not a mode: with a journal
// directory each fleet writes an fsync'd journal (+ snapshots) there and
// a restarted daemon recovers it bit-identically; without one the same
// operators run in memory.
//
//	POST   /v1/jobs       {"fleet": {...}, "job": {...}}  submit one job
//	GET    /v1/jobs       every fleet's current schedule
//	GET    /v1/jobs/{id}  one job's placement (retired jobs resolve too)
//	DELETE /v1/jobs/{id}  cancel one live job

// maxFleets bounds the distinct fleet topologies one daemon manages;
// each holds up to fleet.MaxJobs live jobs and a slice-plan memo. A new
// topology arriving at the bound evicts a drained fleet (evictLocked).
const maxFleets = 16

// OperatorMode configures the fleet operators behind /v1/jobs.
type OperatorMode struct {
	// JournalDir holds one journal (+ snapshot) per fleet, named by the
	// hash of the fleet's topology fingerprint. "" = in-memory fleets,
	// gone with the process.
	JournalDir string
	// Policy is the scheduling policy for freshly created fleets
	// ("" = fleet.DefaultPolicy). Recovered fleets keep their own.
	Policy string
	// Clock drives every operator (nil = the real clock). Tests inject
	// a fleet.FakeClock.
	Clock fleet.Clock
}

// fleetRegistry maps fleet topologies (by fingerprint) to their
// operators. Job IDs are global — the ID is the only handle GET and
// DELETE take — and resolve by scanning the ≤ maxFleets operators, so
// retired jobs stay resolvable and nothing extra needs recovering after
// a restart.
type fleetRegistry struct {
	mu   sync.Mutex
	ops  map[string]*fleet.Operator // fingerprint -> operator
	mode OperatorMode
	// submitMu serializes submits end to end: the cross-fleet
	// ID-uniqueness scan, any fleet creation or eviction, and the submit
	// they authorize are one atomic step, or two concurrent submits of
	// the same ID to different fleets both pass the scan and mint a
	// duplicate ID. A dedicated lock rather than mu (which it wraps,
	// never the reverse) so the fsync inside Submit never blocks
	// registry readers.
	submitMu sync.Mutex
}

func (fr *fleetRegistry) init() { fr.ops = make(map[string]*fleet.Operator) }

// journalPath is a fleet's journal file ("" = in memory): a fixed
// prefix plus the FNV-64a hash of the topology fingerprint
// (fingerprints themselves contain separators unfit for filenames).
// Callers hold mu.
func (fr *fleetRegistry) journalPath(fp string) string {
	if fr.mode.JournalDir == "" {
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(fp))
	return filepath.Join(fr.mode.JournalDir, fmt.Sprintf("fleet-%016x.journal", h.Sum64()))
}

// ConfigureOperators sets the journal directory, default policy and
// clock of the fleets this server creates, and recovers every fleet
// already journaled under mode.JournalDir. It must be called before the
// server takes traffic; without it fleets run in memory on the real
// clock under fleet.DefaultPolicy. Returns the number of fleets
// recovered.
func (s *Server) ConfigureOperators(mode OperatorMode) (int, error) {
	if _, err := fleet.PolicyByName(mode.Policy); err != nil {
		return 0, err
	}
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.ops) > 0 {
		return 0, fmt.Errorf("api: operators must be configured before any fleet exists")
	}
	if mode.JournalDir == "" {
		fr.mode = mode
		return 0, nil
	}
	if err := os.MkdirAll(mode.JournalDir, 0o755); err != nil {
		return 0, err
	}
	names, err := filepath.Glob(filepath.Join(mode.JournalDir, "fleet-*.journal"))
	if err != nil {
		return 0, err
	}
	sort.Strings(names)
	recovered := 0
	for _, path := range names {
		spec, ok, err := fleet.PeekSpec(path, "")
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		if !ok {
			continue // an empty journal file carries no fleet
		}
		topo, err := spec.Topology()
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		fp := topo.Fingerprint()
		if _, dup := fr.ops[fp]; dup {
			return recovered, fmt.Errorf("api: journals %s and fleet %s describe the same topology", path, fp)
		}
		op, err := fleet.NewOperator(s.pool.ShardFor(fp), spec, fleet.OperatorConfig{
			Clock:   mode.Clock,
			Journal: path,
			Events:  s.events,
		})
		if err != nil {
			return recovered, fmt.Errorf("api: recovering %s: %w", path, err)
		}
		fr.ops[fp] = op
		recovered++
	}
	fr.mode = mode
	return recovered, nil
}

// CloseOperators cleanly shuts every operator down: retire what is
// retirable, cut a final snapshot, close the journals. Part of the
// graceful-shutdown path; a crash instead leaves journals the recovery
// path replays.
func (s *Server) CloseOperators() error { return s.stopOperators((*fleet.Operator).Close) }

// AbortOperators drops every operator cold — journals close, but
// nothing retires and no snapshot is cut — leaving exactly the state a
// kill -9 leaves. The crash-recovery tests (and fast non-graceful
// teardowns) use it; production shutdown wants CloseOperators.
func (s *Server) AbortOperators() error { return s.stopOperators((*fleet.Operator).Abort) }

// stopOperators empties the registry, so each operator is stopped
// exactly once, and applies stop to every operator it held.
func (s *Server) stopOperators(stop func(*fleet.Operator) error) error {
	fr := &s.fleets
	fr.mu.Lock()
	ops := fr.ops
	fr.ops = make(map[string]*fleet.Operator)
	fr.mu.Unlock()
	var first error
	for _, op := range ops {
		if err := stop(op); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sortedFingerprints lists a registry's fleets in fingerprint order,
// the deterministic order of job-ID scans, listings and eviction.
func sortedFingerprints(ops map[string]*fleet.Operator) []string {
	fps := make([]string, 0, len(ops))
	for fp := range ops {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	return fps
}

// operatorFor resolves (or creates) the operator owning the given
// fleet. The requested policy applies to fresh fleets and must match on
// existing ones (409 otherwise): a fleet has exactly one policy at a
// time, switching it is an operator action, not a side effect of a
// submit. Callers hold submitMu.
func (s *Server) operatorFor(fp string, spec fleet.Spec, policy string) (*fleet.Operator, error) {
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if op, ok := fr.ops[fp]; ok {
		if policy != "" && policy != op.Policy() {
			return nil, errf(http.StatusConflict,
				"jobs: fleet %s schedules under policy %q; a submit cannot switch it to %q", fp, op.Policy(), policy)
		}
		return op, nil
	}
	if len(fr.ops) >= maxFleets {
		if err := s.evictLocked(); err != nil {
			return nil, err
		}
	}
	if policy == "" {
		policy = fr.mode.Policy
	}
	op, err := fleet.NewOperator(s.pool.ShardFor(fp), spec, fleet.OperatorConfig{
		Clock:   fr.mode.Clock,
		Journal: fr.journalPath(fp),
		Policy:  policy,
		Events:  s.events,
	})
	if err != nil {
		return nil, errf(http.StatusBadRequest, "jobs: %v", err)
	}
	fr.ops[fp] = op
	return op, nil
}

// evictLocked frees one registry slot by evicting the lowest-fingerprint
// fleet that holds no live jobs, in crash-safe order: Close cuts a final
// snapshot and empties the journal; the snapshot and then the journal
// are removed (recovery skips an empty journal, so a crash between the
// steps never brings back half a fleet); only then does the registry
// forget the fleet. A failed Close removes nothing. When every fleet
// holds live jobs the submit answers 429. Callers hold submitMu — no
// submit can give the victim a job mid-eviction — and fr.mu.
func (s *Server) evictLocked() error {
	fr := &s.fleets
	for _, fp := range sortedFingerprints(fr.ops) {
		op := fr.ops[fp]
		if op.Len() > 0 {
			continue
		}
		if err := op.Close(); err != nil {
			return errf(http.StatusInternalServerError, "jobs: evicting drained fleet %s: %v", fp, err)
		}
		if journal := fr.journalPath(fp); journal != "" {
			for _, path := range []string{journal + ".snap", journal} {
				if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
					return errf(http.StatusInternalServerError, "jobs: evicting drained fleet %s: %v", fp, err)
				}
			}
		}
		delete(fr.ops, fp)
		return nil
	}
	return errf(http.StatusTooManyRequests, "jobs: daemon already manages %d fleets, each with live jobs", maxFleets)
}

// operators snapshots the operator set in fingerprint order (at most
// maxFleets entries, so a scan is bounded and cheap).
func (s *Server) operators() ([]string, map[string]*fleet.Operator) {
	fr := &s.fleets
	fr.mu.Lock()
	defer fr.mu.Unlock()
	ops := make(map[string]*fleet.Operator, len(fr.ops))
	for fp, op := range fr.ops {
		ops[fp] = op
	}
	return sortedFingerprints(ops), ops
}

// findJob resolves a job ID, live or retired, to its owning operator.
func (s *Server) findJob(id string) (*fleet.Operator, string, bool) {
	fps, ops := s.operators()
	for _, fp := range fps {
		if ops[fp].Has(id) {
			return ops[fp], fp, true
		}
	}
	return nil, "", false
}

// JobRequest is the envelope of POST /v1/jobs.
type JobRequest struct {
	Fleet fleet.Spec `json:"fleet"`
	Job   fleet.Job  `json:"job"`
	// Policy optionally names the fleet's scheduling policy (fifo,
	// priority, edf, fair). It applies when the submit creates the
	// fleet; on an existing fleet a differing policy is a 409 — one
	// fleet schedules under one policy at a time.
	Policy string `json:"policy,omitempty"`
}

// JobResponse is the outcome of POST /v1/jobs and GET /v1/jobs/{id}:
// the job's slot in the fleet's current schedule.
type JobResponse struct {
	// Fleet identifies the owning fleet by topology fingerprint.
	Fleet string `json:"fleet"`
	// Jobs counts the fleet's live jobs.
	Jobs      int             `json:"jobs"`
	Placement fleet.Placement `json:"placement"`
	// State is the job's wall-clock state: queued, running, done, or
	// unplaced.
	State string `json:"state"`
	// Now is the fleet's wall-clock instant.
	Now float64 `json:"now,omitempty"`
	// Policy names the fleet's scheduling policy.
	Policy string `json:"policy,omitempty"`
	// Makespan / Utilization summarize the fleet's whole schedule.
	Makespan    float64 `json:"makespan"`
	Utilization float64 `json:"utilization"`
}

// CancelResponse is the outcome of DELETE /v1/jobs/{id}.
type CancelResponse struct {
	Job      string `json:"job"`
	Canceled bool   `json:"canceled"`
	Jobs     int    `json:"jobs"`
}

// FleetSchedule is one fleet's slot in GET /v1/jobs.
type FleetSchedule struct {
	Fleet    string          `json:"fleet"`
	Jobs     int             `json:"jobs"`
	Schedule *fleet.Schedule `json:"schedule"`
	// Policy / Now / Done describe the fleet: its scheduling policy,
	// wall-clock instant, and retired-job count.
	Policy string  `json:"policy,omitempty"`
	Now    float64 `json:"now,omitempty"`
	Done   int     `json:"done,omitempty"`
}

// FleetsResponse is the outcome of GET /v1/jobs.
type FleetsResponse struct {
	Version string          `json:"version"`
	Fleets  []FleetSchedule `json:"fleets"`
}

// submitStatus maps an Operator.Submit refusal to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, fleet.ErrJobExists):
		return http.StatusConflict
	case errors.Is(err, fleet.ErrFleetFull):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// handleJobSubmit admits one job into its fleet and answers with the
// job's slot in the recomputed schedule. The whole check-then-submit
// runs under the registry's submit lock: the uniqueness scan and the
// submit it authorizes are one atomic step.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, decodeStatus(err), "jobs: %v", err)
		return
	}
	if err := checkModel(req.Job.Model); err != nil {
		writeError(w, http.StatusBadRequest, "jobs: %v", err)
		return
	}
	topo, err := req.Fleet.Topology()
	if err != nil {
		writeError(w, http.StatusBadRequest, "jobs: %v", err)
		return
	}
	if topo.NumNodes() > maxNodes {
		writeError(w, http.StatusBadRequest, "jobs: %d nodes exceeds the per-fleet limit of %d", topo.NumNodes(), maxNodes)
		return
	}
	fp := topo.Fingerprint()
	if req.Policy != "" {
		if _, err := fleet.PolicyByName(req.Policy); err != nil {
			writeError(w, http.StatusBadRequest, "jobs: %v", err)
			return
		}
	}

	s.fleets.submitMu.Lock()
	defer s.fleets.submitMu.Unlock()
	// Job IDs are global across fleets. Same-fleet duplicates fall
	// through to the operator's own (journal-consistent) check.
	if _, owner, ok := s.findJob(req.Job.ID); ok && owner != fp {
		writeError(w, http.StatusConflict, "jobs: job %q already exists in fleet %s", req.Job.ID, owner)
		return
	}
	op, err := s.operatorFor(fp, req.Fleet, req.Policy)
	if err != nil {
		writeError(w, errStatus(err), "%s", err)
		return
	}
	if err := op.Submit(req.Job); err != nil {
		writeError(w, submitStatus(err), "jobs: %v", err)
		return
	}
	s.writeJob(w, op, fp, req.Job.ID)
}

// writeJob answers with one job's placement, wall-clock state, and the
// owning fleet's schedule summary.
func (s *Server) writeJob(w http.ResponseWriter, op *fleet.Operator, fp, id string) {
	st, ok, err := op.Job(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	if !ok {
		// Cancelled between lookup and replay.
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	sched, err := op.Schedule()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, JobResponse{
		Fleet:       fp,
		Jobs:        op.Len(),
		Placement:   st.Placement,
		State:       st.State,
		Now:         op.Now(),
		Policy:      op.Policy(),
		Makespan:    sched.Makespan,
		Utilization: sched.Utilization,
	})
}

// handleJobGet answers one job's current placement: live and retired
// jobs both resolve (a client polling a finished job sees state "done"
// with its final placement, not a 404).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	op, fp, ok := s.findJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	s.writeJob(w, op, fp, id)
}

// handleJobCancel removes one live job from its fleet. Retired jobs
// refuse with 409: their outcome is history, not cancellable work.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	op, _, ok := s.findJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "jobs: no such job %q", id)
		return
	}
	canceled, err := op.Cancel(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "jobs: %v", err)
		return
	}
	if !canceled {
		writeError(w, http.StatusConflict, "jobs: job %q already ran to completion", id)
		return
	}
	writeJSON(w, http.StatusOK, CancelResponse{Job: id, Canceled: true, Jobs: op.Len()})
}

// handleJobsList answers every fleet's live schedule plus its policy,
// wall clock, and retired-job count, fleets ordered by fingerprint so
// concurrent observers read stable output.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	fps, ops := s.operators()
	resp := FleetsResponse{Version: Version, Fleets: []FleetSchedule{}}
	for _, fp := range fps {
		op := ops[fp]
		sched, err := op.Schedule()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "jobs: fleet %s: %v", fp, err)
			return
		}
		resp.Fleets = append(resp.Fleets, FleetSchedule{
			Fleet:    fp,
			Jobs:     op.Len(),
			Schedule: sched,
			Policy:   op.Policy(),
			Now:      op.Now(),
			Done:     len(op.Done()),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
