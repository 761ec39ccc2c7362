package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"holmes/internal/engine"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// MaxJobs bounds one fleet's live job set: schedules are recomputed from
// the full set on demand, so an unbounded set would let one tenant make
// every poll arbitrarily expensive.
const MaxJobs = 64

// Submit refusals callers classify with errors.Is.
var (
	// ErrJobExists: the fleet already holds the job ID, or has already
	// run it to completion.
	ErrJobExists = errors.New("job already exists")
	// ErrFleetFull: the fleet already holds MaxJobs live jobs.
	ErrFleetFull = errors.New("fleet is full")
)

// Manager is the concurrent face of the scheduler for the serve API:
// jobs are submitted, polled, and cancelled from any number of
// goroutines, and the schedule observed at any instant is the
// deterministic replay of the live job set ordered by (submit, id) —
// independent of the interleaving that built the set. Submitting the
// same jobs in any order, on any engine, yields bit-identical
// schedules.
//
// Schedules are computed incrementally. Each job is validated and
// resolved once, at Submit, and kept resolved in the live set; every
// recomputation records a checkpoint of the replay state at each virtual
// instant, and a mutation invalidates only the checkpoints at or after
// its change point (the submit time of an added or cancelled job, the
// timestamp of a scenario event). The next Schedule call resumes from
// the newest surviving checkpoint instead of replaying from virtual time
// zero. A manager on an engine with FullRecompute set keeps no
// checkpoints and replays every schedule from scratch, resolving the
// live trace anew — the differential oracle the incremental path is
// tested against; by construction both produce bit-identical schedules.
type Manager struct {
	sch *Scheduler

	mu   sync.Mutex
	jobs map[string]*rjob // the live set by ID, resolved at Submit
	// order is the live set in the canonical trace order, (submit, id):
	// the order every schedule replays and every snapshot writes,
	// whatever order the jobs arrived in. Submit and Cancel keep it so.
	order []*rjob
	scn   *scenario.Scenario
	// evs is scn lowered to the replay's node events (lowerEvents),
	// refreshed by every timeline edit, so a poll lowers nothing; latest
	// is the latest instant of scn's events (-Inf: none).
	evs     []scenario.Event
	latest  float64
	policy  string // "" = DefaultPolicy
	version uint64 // bumped on every mutation
	cached  *Schedule
	cachedV uint64

	rec recorder
}

// NewManager builds a manager over one shared fleet topology on the
// given engine (nil = the shared default).
func NewManager(eng *engine.Engine, topo *topology.Topology) (*Manager, error) {
	sch, err := NewScheduler(eng, topo)
	if err != nil {
		return nil, err
	}
	return &Manager{sch: sch, jobs: make(map[string]*rjob), latest: math.Inf(-1)}, nil
}

// Topology exposes the fleet topology.
func (m *Manager) Topology() *topology.Topology { return m.sch.Topology() }

// SetPolicy switches the fleet's scheduling policy ("" = DefaultPolicy).
// A policy decides every queue order from virtual time zero, so the
// switch invalidates all checkpoints and the next Schedule call replays
// the live set from scratch under the new policy.
func (m *Manager) SetPolicy(name string) error {
	if _, err := PolicyByName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.policy == name {
		return nil
	}
	m.policy = name
	m.invalidateFrom(math.Inf(-1))
	return nil
}

// Policy reports the fleet's scheduling policy name (resolved: never
// empty).
func (m *Manager) Policy() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.policy == "" {
		return DefaultPolicy
	}
	return m.policy
}

// invalidateFrom records that a mutation's earliest observable effect is
// at virtual instant t. Callers hold m.mu.
func (m *Manager) invalidateFrom(t float64) {
	m.version++
	m.rec.invalidateFrom(t)
}

// Submit validates and admits one job, resolving it once for every
// later replay. Duplicate IDs are rejected — the ID is the client's
// handle for polling and cancellation.
func (m *Manager) Submit(j Job) error {
	rj, err := resolveJob(m.sch.topo, 0, j)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.jobs[j.ID]; dup {
		return fmt.Errorf("fleet: %w: %q", ErrJobExists, j.ID)
	}
	if len(m.jobs) >= MaxJobs {
		return fmt.Errorf("fleet: %w (%d jobs, the per-fleet limit)", ErrFleetFull, MaxJobs)
	}
	m.jobs[j.ID] = &rj
	i, _ := slices.BinarySearchFunc(m.order, &rj, traceOrder)
	m.order = slices.Insert(m.order, i, &rj)
	m.invalidateFrom(j.Submit)
	return nil
}

// traceOrder compares two jobs in the canonical trace order, (submit,
// id).
func traceOrder(a, b *rjob) int {
	if c := cmp.Compare(a.job.Submit, b.job.Submit); c != 0 {
		return c
	}
	return strings.Compare(a.job.ID, b.job.ID)
}

// Cancel removes a job from the set; false = unknown ID.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false
	}
	delete(m.jobs, id)
	i, _ := slices.BinarySearchFunc(m.order, j, traceOrder)
	m.order = slices.Delete(m.order, i, i+1)
	m.invalidateFrom(j.job.Submit)
	return true
}

// SetScenario replaces the fleet's scripted event timeline (nil clears
// it). The change point is the earliest event in either the old or the
// new timeline — everything before it replays identically. The timeline
// is deep-copied on the way in: a caller appending to sc.Events after
// the call mutates its own copy, never the checkpointed replay state
// (which would desync the incremental path from the oracle, since no
// invalidateFrom would fire for the smuggled events).
func (m *Manager) SetScenario(sc *scenario.Scenario) error {
	if err := validateScenario(m.sch.topo, sc); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := math.Inf(1)
	if !m.scn.Empty() {
		t = min(t, eventChange(m.scn.Events))
	}
	if !sc.Empty() {
		t = min(t, eventChange(sc.Events))
	}
	m.scn = sc.Clone()
	m.evs = lowerEvents(m.sch.topo, m.scn)
	m.latest = math.Inf(-1)
	if !m.scn.Empty() {
		for _, ev := range m.scn.Events {
			m.latest = max(m.latest, ev.At)
		}
	}
	m.invalidateFrom(t)
	return nil
}

// ApplyEvent appends one event to the fleet's timeline. The timeline
// was validated when it was set, so only the appended event is
// validated, and its lowered events merge into the kept lowered slice;
// an event earlier than the timeline's latest relowers the whole
// timeline, since its primitives may have to go before a later event's
// at one instant. Only the replay suffix from the event's instant onward
// recomputes.
func (m *Manager) ApplyEvent(ev scenario.Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var prev []scenario.Event
	name := "fleet"
	if !m.scn.Empty() {
		prev, name = m.scn.Events, m.scn.Name
	}
	if err := validateEvent(m.sch.topo, len(prev), ev); err != nil {
		return err
	}
	m.scn = &scenario.Scenario{Name: name, Events: append(prev, ev)}
	if ev.At < m.latest {
		m.evs = lowerEvents(m.sch.topo, m.scn)
	} else {
		m.evs = appendLowered(m.sch.topo, m.evs, ev)
	}
	m.latest = max(m.latest, ev.At)
	m.invalidateFrom(ev.At)
	return nil
}

// Scenario returns a deep copy of the live timeline: mutating the
// result cannot reach the manager's replay state (route edits through
// SetScenario or ApplyEvent, which invalidate checkpoints properly).
func (m *Manager) Scenario() *scenario.Scenario {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scn.Clone()
}

// Len reports the live job count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// trace folds the live set into the canonical trace. Callers hold m.mu.
func (m *Manager) trace() *Trace {
	jobs := make([]Job, len(m.order))
	for i, j := range m.order {
		jobs[i] = j.job
	}
	return &Trace{Jobs: jobs, Scenario: m.scn, Policy: m.policy}
}

// Schedule replays the live job set, memoized until the next mutation.
// An empty set returns an empty schedule. The returned schedule is
// shared — treat it as read-only.
func (m *Manager) Schedule() (*Schedule, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cached != nil && m.cachedV == m.version {
		return m.cached, nil
	}
	if len(m.jobs) == 0 {
		m.rec.reset()
		sched := &Schedule{Policy: m.policy, Nodes: m.sch.topo.NumNodes(), GPUs: m.sch.topo.NumDevices()}
		m.cached, m.cachedV = sched, m.version
		return sched, nil
	}
	var sched *Schedule
	var err error
	if m.sch.eng.FullRecompute() {
		sched, err = m.sch.Replay(m.trace())
	} else {
		for i, j := range m.order {
			j.idx = i
		}
		sched, err = m.sch.resume(m.order, m.evs, m.policy, &m.rec)
	}
	if err != nil {
		return nil, err
	}
	m.cached, m.cachedV = sched, m.version
	return sched, nil
}

// Job returns the placement of one job in the current schedule.
func (m *Manager) Job(id string) (Placement, bool, error) {
	sched, err := m.Schedule()
	if err != nil {
		return Placement{}, false, err
	}
	for _, p := range sched.Jobs {
		if p.JobID == id {
			return p, true, nil
		}
	}
	return Placement{}, false, nil
}
