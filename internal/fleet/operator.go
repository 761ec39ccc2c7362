package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"holmes/internal/engine"
	"holmes/internal/events"
	"holmes/internal/scenario"
	"holmes/internal/topology"
)

// Operator is the always-on face of one fleet: a Manager driven by a
// wall clock and backed by a durable journal. Where the Manager lives
// purely on the virtual replay clock, the Operator binds that clock to
// real instants — submits are stamped with the current wall time, an
// event loop wakes exactly at the next placement edge or scenario
// instant, completed work is retired at idle barriers — and every
// mutation is journaled so a restarted process recovers its fleet and
// resumes scheduling bit-identically to a process that never died. With
// no journal path the same operator runs in memory: it schedules and
// publishes identically but keeps nothing across a restart.
//
// Determinism across a crash is the design center:
//
//   - The journal records mutations (inputs), never schedules
//     (outputs): replaying the records through the same deterministic
//     Manager reproduces every placement bit for bit.
//   - Submit stamps a wall time only when the job carries none, and the
//     stamp itself is journaled — recovery replays the stamped record
//     and never re-stamps.
//   - Retirement happens only at idle barriers (every live job finished
//     or unplaceable, nothing queued), where removing finished jobs
//     cannot change how any future submit replays; the retirement is
//     itself a journal record, so killed and unkilled runs retire at
//     identical points.
type Operator struct {
	m     *Manager
	clock Clock
	j     *Journal

	mu        sync.Mutex
	spec      Spec
	snapPath  string
	base      float64 // operator wall instant at construction (recovery resumes here)
	epoch     float64 // clock reading at construction
	done      map[string]Placement
	doneIDs   []string // retirement order, for stable snapshots
	sinceSnp  int      // journal records since the last snapshot
	snapEvery int

	// Live-observability state (nil hub = publishing disabled). Events
	// mirror journal records post-append (DESIGN.md decision 14) and
	// derived transitions are diffed against lastState so each one is
	// published exactly once; edgeHorizon marks how far into the
	// scenario timeline "fired" edges have been announced.
	events      *events.Hub
	fp          string            // topology fingerprint, the stream's fleet label
	lastState   map[string]string // job ID -> last published state
	edgeHorizon float64

	stop     chan struct{}
	stopOnce sync.Once // Close and Abort may each run, in any order
	wake     chan struct{}
	wg       sync.WaitGroup
}

// OperatorConfig configures NewOperator.
type OperatorConfig struct {
	// Clock drives the operator (nil = NewRealClock). Tests inject a
	// FakeClock to make whole operator lifetimes deterministic.
	Clock Clock
	// Journal is the path of the fsync'd mutation log. Empty means an
	// in-memory fleet: records are only numbered (events still carry
	// journal_seq), and no snapshot is read or written.
	Journal string
	// Snapshot is the snapshot document path ("" = Journal + ".snap").
	Snapshot string
	// Policy is the scheduling policy for a freshly created fleet
	// ("" = DefaultPolicy). Ignored on recovery: the journal knows.
	Policy string
	// SnapshotEvery bounds journal growth: a snapshot is cut after
	// this many records (default 64; retirement always snapshots).
	SnapshotEvery int
	// Events, when set, receives the operator's live event stream: job
	// transitions, scenario edges, policy changes, retirements. Every
	// event is published strictly after the journal record that made
	// the change durable, so the stream can never show a state a crash
	// would un-happen. Recovery replay publishes nothing — the stream
	// carries only what changes after the hub is attached.
	Events *events.Hub
}

// NewOperator opens (or recovers) the fleet at cfg.Journal. A fresh
// journal creates the fleet from spec and writes the create record; an
// existing journal/snapshot pair recovers the fleet — spec must then
// match the recorded one — and resumes the wall clock from the
// recovered instant.
func NewOperator(eng *engine.Engine, spec Spec, cfg OperatorConfig) (*Operator, error) {
	if cfg.Clock == nil {
		cfg.Clock = NewRealClock()
	}
	switch {
	case cfg.Journal == "":
		cfg.Snapshot = "" // in-memory: no durable state at all
	case cfg.Snapshot == "":
		cfg.Snapshot = cfg.Journal + ".snap"
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 64
	}

	var snap *FleetSnapshot
	if cfg.Snapshot != "" {
		if data, err := os.ReadFile(cfg.Snapshot); err == nil {
			s, err := DecodeFleetSnapshot(data)
			if err != nil {
				return nil, err // reject-all: a corrupt snapshot never half-loads
			}
			snap = &s
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	j, recs, err := OpenJournal(cfg.Journal)
	if err != nil {
		return nil, err
	}

	o := &Operator{
		clock:     cfg.Clock,
		j:         j,
		snapPath:  cfg.Snapshot,
		epoch:     cfg.Clock.Now(),
		done:      make(map[string]Placement),
		snapEvery: cfg.SnapshotEvery,
		stop:      make(chan struct{}),
		wake:      make(chan struct{}, 1),
	}
	fail := func(err error) (*Operator, error) {
		j.Close()
		return nil, err
	}

	switch {
	case snap != nil:
		// The snapshot truncated the journal, so sequence numbering must
		// resume from the snapshot's Seq — a journal restarted at 1 would
		// collide with the range the snapshot covers, and the *next*
		// recovery would silently skip those records.
		j.SeedSeq(snap.Seq)
		if err := o.restoreSnapshot(eng, spec, *snap); err != nil {
			return fail(err)
		}
		// Replay only the suffix the snapshot does not cover.
		for _, rec := range recs {
			if rec.Seq <= snap.Seq {
				continue
			}
			if err := o.applyRecord(rec); err != nil {
				return fail(fmt.Errorf("fleet: journal replay seq %d: %w", rec.Seq, err))
			}
			o.base = math.Max(o.base, rec.At)
		}
	case len(recs) > 0:
		if recs[0].Kind != RecCreate || recs[0].Fleet == nil {
			return fail(fmt.Errorf("fleet: journal %s does not begin with a create record", cfg.Journal))
		}
		if err := o.create(eng, *recs[0].Fleet, recs[0].Policy); err != nil {
			return fail(err)
		}
		if !specEqual(spec, *recs[0].Fleet) {
			return fail(fmt.Errorf("fleet: journal %s was created for a different fleet spec", cfg.Journal))
		}
		for _, rec := range recs[1:] {
			if err := o.applyRecord(rec); err != nil {
				return fail(fmt.Errorf("fleet: journal replay seq %d: %w", rec.Seq, err))
			}
			o.base = math.Max(o.base, rec.At)
		}
	default:
		if err := o.create(eng, spec, cfg.Policy); err != nil {
			return fail(err)
		}
		if _, err := j.Append(Record{At: 0, Kind: RecCreate, Fleet: &spec, Policy: cfg.Policy}); err != nil {
			return fail(err)
		}
	}

	if cfg.Events != nil {
		o.primeEvents(cfg.Events)
	}

	o.wg.Add(1)
	go o.loop()
	return o, nil
}

// primeEvents attaches the hub and initializes publishing state
// without emitting anything: recovery replay is history the stream's
// subscribers either already saw or never asked for, so the diff
// baseline starts at the recovered present. Runs before the loop
// starts, so no lock is needed.
func (o *Operator) primeEvents(hub *events.Hub) {
	o.events = hub
	o.fp = o.m.Topology().Fingerprint()
	o.lastState = make(map[string]string)
	now := o.now()
	if sched, err := o.m.Schedule(); err == nil {
		for _, p := range sched.Jobs {
			o.lastState[p.JobID] = placementState(p, now)
		}
	}
	o.edgeHorizon = now
}

func specEqual(a, b Spec) bool {
	ta, err := a.Topology()
	if err != nil {
		return false
	}
	tb, err := b.Topology()
	if err != nil {
		return false
	}
	return ta.Fingerprint() == tb.Fingerprint()
}

// create builds the fresh manager.
func (o *Operator) create(eng *engine.Engine, spec Spec, policy string) error {
	topo, err := spec.Topology()
	if err != nil {
		return err
	}
	m, err := NewManager(eng, topo)
	if err != nil {
		return err
	}
	if err := m.SetPolicy(policy); err != nil {
		return err
	}
	o.m, o.spec = m, spec
	return nil
}

// restoreSnapshot rebuilds the manager from a snapshot document.
func (o *Operator) restoreSnapshot(eng *engine.Engine, spec Spec, s FleetSnapshot) error {
	if !specEqual(spec, s.Fleet) {
		return fmt.Errorf("fleet: snapshot %s was taken for a different fleet spec", o.snapPath)
	}
	if err := o.create(eng, s.Fleet, s.Policy); err != nil {
		return err
	}
	if s.Scenario != nil {
		if err := o.m.SetScenario(s.Scenario); err != nil {
			return err
		}
	}
	for _, j := range s.Jobs {
		if err := o.m.Submit(j); err != nil {
			return err
		}
	}
	for _, p := range s.Done {
		o.done[p.JobID] = p
		o.doneIDs = append(o.doneIDs, p.JobID)
	}
	o.base = s.Now
	return nil
}

// applyRecord folds one recovered journal record into the manager.
// Replay is quiet: nothing is re-journaled, and retirement re-derives
// the retired placements from the (deterministic) schedule exactly as
// the live path did.
func (o *Operator) applyRecord(rec Record) error {
	switch rec.Kind {
	case RecCreate:
		return fmt.Errorf("unexpected create record mid-journal")
	case RecSubmit:
		if rec.Job == nil {
			return fmt.Errorf("submit record without a job")
		}
		return o.m.Submit(*rec.Job)
	case RecCancel:
		o.m.Cancel(rec.ID)
		return nil
	case RecApplyEvent:
		if rec.Event == nil {
			return fmt.Errorf("apply_event record without an event")
		}
		return o.m.ApplyEvent(*rec.Event)
	case RecSetScenario:
		return o.m.SetScenario(rec.Scenario)
	case RecSetPolicy:
		return o.m.SetPolicy(rec.Policy)
	case RecRetire:
		return o.retireIDs(rec.IDs)
	default:
		return fmt.Errorf("unknown kind %q", rec.Kind)
	}
}

// retireIDs moves the listed jobs from the live set into the done map,
// capturing their final placements from the current schedule. Shared
// by the live idle-barrier path and journal replay: both derive the
// placements from the same deterministic schedule, so a recovered done
// map is bit-identical to the unkilled one.
func (o *Operator) retireIDs(ids []string) error {
	sched, err := o.m.Schedule()
	if err != nil {
		return err
	}
	byID := make(map[string]Placement, len(sched.Jobs))
	for _, p := range sched.Jobs {
		byID[p.JobID] = p
	}
	for _, id := range ids {
		p, ok := byID[id]
		if !ok {
			return fmt.Errorf("retire record names unknown job %q", id)
		}
		o.done[id] = p
		o.doneIDs = append(o.doneIDs, id)
		o.m.Cancel(id)
	}
	return nil
}

// now is the operator wall instant: recovered base plus elapsed clock
// time since construction. Callers hold o.mu or tolerate a racy read.
func (o *Operator) now() float64 { return o.base + (o.clock.Now() - o.epoch) }

// Now reports the operator's wall instant: monotonic within a process
// and across recoveries (a restarted operator resumes from the
// recovered instant, never earlier).
func (o *Operator) Now() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.now()
}

// Topology exposes the fleet topology.
func (o *Operator) Topology() *topology.Topology { return o.m.Topology() }

// Policy reports the live scheduling policy.
func (o *Operator) Policy() string { return o.m.Policy() }

// Len reports the live (unretired) job count.
func (o *Operator) Len() int { return o.m.Len() }

// kick wakes the event loop to recompute its next edge.
func (o *Operator) kick() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// journalApplied journals one already-applied mutation and rolls it
// back when the journal refuses: a mutation is acknowledged only once
// durable. Returns the record's journal sequence so the caller can
// publish the matching event (events only ever follow the append —
// DESIGN.md decision 14). Callers hold o.mu.
func (o *Operator) journalApplied(rec Record, rollback func()) (uint64, error) {
	seq, err := o.j.Append(rec)
	if err != nil {
		rollback()
		return 0, fmt.Errorf("fleet: journal append: %w", err)
	}
	o.sinceSnp++
	return seq, nil
}

// publish stamps the event with the fleet label and hands it to the
// hub, if one is attached. Callers hold o.mu; the hub never blocks
// (slow subscribers are evicted), so publishing under the operator
// lock is safe.
func (o *Operator) publish(ev events.Event) {
	if o.events == nil {
		return
	}
	ev.Fleet = o.fp
	o.events.Publish(ev)
}

// publishLocked diffs the live schedule against the last published
// job states and emits every transition wall time has made true, each
// stamped with the deterministic schedule edge that caused it (start
// for running, finish for done) rather than the instant the loop
// happened to observe it — which is what makes a scripted fleet's
// stream reproducible. Scenario edges the clock has crossed since the
// last scan are announced the same way, stamped with the edge's own
// instant. Events sort by (At, Kind, Job) so equal-instant batches
// have one canonical order. Callers hold o.mu.
func (o *Operator) publishLocked() {
	if o.events == nil {
		return
	}
	sched, err := o.m.Schedule()
	if err != nil {
		return
	}
	now := o.now()
	var evs []events.Event
	for _, p := range sched.Jobs {
		st := placementState(p, now)
		if o.lastState[p.JobID] == st {
			continue
		}
		o.lastState[p.JobID] = st
		at := now
		switch st {
		case "running":
			at = p.Start
		case "done":
			at = p.Finish
		}
		evs = append(evs, events.Event{At: at, Kind: events.KindJob, Job: p.JobID, State: st})
	}
	if sc := o.m.Scenario(); sc != nil {
		for _, ev := range sc.Events {
			if ev.At > o.edgeHorizon && ev.At <= now {
				evs = append(evs, events.Event{At: ev.At, Kind: events.KindScenario, State: "fired", Payload: ev})
			}
		}
	}
	if now > o.edgeHorizon {
		o.edgeHorizon = now
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		if evs[a].Kind != evs[b].Kind {
			return evs[a].Kind < evs[b].Kind
		}
		return evs[a].Job < evs[b].Job
	})
	for _, ev := range evs {
		o.publish(ev)
	}
}

// Submit admits one job. A zero Submit is stamped with the operator's
// wall instant (the common live path); an explicit positive stamp is
// honored untouched, which keeps scripted soaks reproducible. The
// stamped job is what gets journaled, so recovery replays the exact
// admitted record.
func (o *Operator) Submit(j Job) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.done[j.ID]; dup {
		return fmt.Errorf("fleet: job %q already ran to completion (%w)", j.ID, ErrJobExists)
	}
	at := o.now()
	if j.Submit == 0 {
		j.Submit = at
	}
	if err := o.m.Submit(j); err != nil {
		return err
	}
	seq, err := o.journalApplied(Record{At: at, Kind: RecSubmit, Job: &j}, func() { o.m.Cancel(j.ID) })
	if err != nil {
		return err
	}
	if o.events != nil {
		// Every admitted job enters the stream as "queued" (even one
		// whose start edge has already passed — the scan below follows
		// up with the later states at their own edges).
		o.lastState[j.ID] = "queued"
		o.publish(events.Event{At: at, Kind: events.KindJob, Job: j.ID, State: "queued", JournalSeq: seq})
		o.publishLocked()
	}
	o.kick()
	return nil
}

// Cancel removes a live job; false = unknown (or already retired) ID.
func (o *Operator) Cancel(id string) (bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	job, live := o.m.jobByID(id)
	if !live {
		return false, nil
	}
	if !o.m.Cancel(id) {
		return false, nil
	}
	at := o.now()
	seq, err := o.journalApplied(Record{At: at, Kind: RecCancel, ID: id}, func() { _ = o.m.Submit(job) })
	if err != nil {
		return false, err
	}
	if o.events != nil {
		delete(o.lastState, id)
		o.publish(events.Event{At: at, Kind: events.KindJob, Job: id, State: "canceled", JournalSeq: seq})
		o.publishLocked() // survivors may have replanned onto new edges
	}
	o.kick()
	return true, nil
}

// ApplyEvent appends one scenario event. A zero At is stamped with the
// operator's wall instant.
func (o *Operator) ApplyEvent(ev scenario.Event) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	at := o.now()
	if ev.At == 0 {
		ev.At = at
	}
	prev := o.m.Scenario()
	if err := o.m.ApplyEvent(ev); err != nil {
		return err
	}
	seq, err := o.journalApplied(Record{At: at, Kind: RecApplyEvent, Event: &ev}, func() { _ = o.m.SetScenario(prev) })
	if err != nil {
		return err
	}
	if o.events != nil {
		o.publish(events.Event{At: at, Kind: events.KindScenario, State: "applied", Payload: ev, JournalSeq: seq})
		o.publishLocked()
	}
	o.kick()
	return nil
}

// SetScenario replaces the fleet timeline (nil clears it).
func (o *Operator) SetScenario(sc *scenario.Scenario) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	prev := o.m.Scenario()
	if err := o.m.SetScenario(sc); err != nil {
		return err
	}
	at := o.now()
	seq, err := o.journalApplied(Record{At: at, Kind: RecSetScenario, Scenario: sc.Clone()}, func() { _ = o.m.SetScenario(prev) })
	if err != nil {
		return err
	}
	if o.events != nil {
		ev := events.Event{At: at, Kind: events.KindScenario, State: "cleared", JournalSeq: seq}
		if sc != nil {
			ev.State, ev.Scenario = "replaced", sc.Name
		}
		o.publish(ev)
		o.publishLocked()
	}
	o.kick()
	return nil
}

// SetPolicy switches the scheduling policy.
func (o *Operator) SetPolicy(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	prev := o.m.Policy()
	if err := o.m.SetPolicy(name); err != nil {
		return err
	}
	at := o.now()
	seq, err := o.journalApplied(Record{At: at, Kind: RecSetPolicy, Policy: name}, func() { _ = o.m.SetPolicy(prev) })
	if err != nil {
		return err
	}
	if o.events != nil {
		o.publish(events.Event{At: at, Kind: events.KindPolicy, Policy: name, JournalSeq: seq})
		o.publishLocked() // a policy switch replans every live job
	}
	o.kick()
	return nil
}

// Schedule returns the live replay schedule (retired jobs excluded;
// see Done).
func (o *Operator) Schedule() (*Schedule, error) { return o.m.Schedule() }

// Done returns the placements of retired jobs in retirement order.
func (o *Operator) Done() []Placement {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Placement, 0, len(o.doneIDs))
	for _, id := range o.doneIDs {
		out = append(out, o.done[id])
	}
	return out
}

// JobStatus is one job's operator-eye view: the placement plus where
// it stands against the wall clock.
type JobStatus struct {
	Placement
	// State is "queued" (before its start), "running", "done"
	// (finished or retired), or "unplaced".
	State string `json:"state"`
}

// Has reports whether the operator knows the ID — live or retired —
// without computing a schedule (cheap membership for registry scans).
// Both checks run under one hold of o.mu: retirement moves an ID from
// the live set into the done map under the same lock, so an ID the
// operator knows can never fall between the two reads. (Checking the
// live set after unlocking — the old shape — let a concurrently
// retiring job vanish from both views and a duplicate submit slip
// past the registry scan.)
func (o *Operator) Has(id string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, retired := o.done[id]; retired {
		return true
	}
	_, live := o.m.jobByID(id)
	return live
}

// Job reports one job's placement and wall-clock state; false =
// unknown ID.
func (o *Operator) Job(id string) (JobStatus, bool, error) {
	o.mu.Lock()
	if p, ok := o.done[id]; ok {
		o.mu.Unlock()
		st := "done"
		if p.Unplaced != "" {
			st = "unplaced"
		}
		return JobStatus{Placement: p, State: st}, true, nil
	}
	o.mu.Unlock()
	p, ok, err := o.m.Job(id)
	if err != nil || !ok {
		return JobStatus{}, ok, err
	}
	return JobStatus{Placement: p, State: placementState(p, o.Now())}, true, nil
}

// placementState derives a live placement's wall-clock state at the
// given instant — the single vocabulary shared by Job and the event
// stream.
func placementState(p Placement, now float64) string {
	switch {
	case p.Unplaced != "":
		return "unplaced"
	case len(p.Nodes) > 0 && now >= p.Finish:
		return "done"
	case len(p.Nodes) > 0 && now >= p.Start:
		return "running"
	default:
		return "queued"
	}
}

// nextEdge is the earliest wall instant after now where something
// observable happens: a placement starts or finishes, or a scenario
// event fires. +Inf when nothing is pending.
func (o *Operator) nextEdge() float64 {
	sched, err := o.m.Schedule()
	if err != nil {
		return math.Inf(1)
	}
	o.mu.Lock()
	now := o.now()
	o.mu.Unlock()
	edge := math.Inf(1)
	for _, p := range sched.Jobs {
		if p.Unplaced != "" {
			continue
		}
		if p.Start > now {
			edge = math.Min(edge, p.Start)
		}
		if p.Finish > now {
			edge = math.Min(edge, p.Finish)
		}
	}
	if sc := o.m.Scenario(); sc != nil {
		for _, ev := range sc.Events {
			if ev.At > now {
				edge = math.Min(edge, ev.At)
			}
		}
	}
	return edge
}

// loop is the wall-clock driver: sleep precisely until the next edge
// (or a mutation), then retire and snapshot as due. The wake path must
// tick too, not just re-arm: an edge can pass between a mutation and
// the re-arm (nextEdge then sees only the past and returns +Inf), and
// a tick is the only thing that processes an edge already behind us.
// Ticking is idempotent, so ticking on a wake that has nothing due is
// harmless. Edges are operator instants while the timer counts clock
// time, so the edge is converted before arming (base and epoch are
// fixed at construction); arming the raw edge would fire early on any
// operator born after its clock's epoch and spin until the edge.
func (o *Operator) loop() {
	defer o.wg.Done()
	for {
		timer := o.clock.After(o.nextEdge() - o.base + o.epoch)
		select {
		case <-o.stop:
			return
		case <-o.wake:
			o.tick()
		case <-timer:
			o.tick()
		}
	}
}

// tick runs at an edge: retire at idle barriers, snapshot when the
// journal has grown enough.
func (o *Operator) tick() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.publishLocked() // announce whatever the clock made true first
	_ = o.tryRetireLocked()
	if o.sinceSnp >= o.snapEvery {
		_ = o.snapshotLocked()
	}
}

// tryRetireLocked retires the whole live set when the fleet is at an
// idle barrier: every live job has either finished by now or can never
// be placed. At such an instant the replay state visible to any future
// submit equals a fresh fleet under the same timeline, so removing the
// finished jobs cannot change any future placement — and the retire
// record makes killed and unkilled runs retire identically.
func (o *Operator) tryRetireLocked() error {
	if o.m.Len() == 0 {
		return nil
	}
	sched, err := o.m.Schedule()
	if err != nil {
		return err
	}
	now := o.now()
	var ids []string
	for _, p := range sched.Jobs {
		if p.Unplaced == "" && (len(p.Nodes) == 0 || p.Finish > now) {
			return nil // something is still queued or running
		}
		ids = append(ids, p.JobID)
	}
	sort.Strings(ids)
	// Publish final states first: the clock may have crossed a finish
	// edge since the caller's last scan, and a job must never retire
	// without its "done".
	o.publishLocked()
	// Capture the jobs before retiring: if the retire record cannot be
	// journaled, the retirement is undone (jobs resubmitted, done
	// entries dropped) so memory never runs ahead of durable state.
	jobs := make([]Job, len(ids))
	for i, id := range ids {
		job, ok := o.m.jobByID(id)
		if !ok {
			return fmt.Errorf("fleet: retiring unknown job %q", id)
		}
		jobs[i] = job
	}
	if err := o.retireIDs(ids); err != nil {
		return err
	}
	rollback := func() {
		o.doneIDs = o.doneIDs[:len(o.doneIDs)-len(ids)]
		for i, id := range ids {
			delete(o.done, id)
			_ = o.m.Submit(jobs[i])
		}
	}
	seq, err := o.journalApplied(Record{At: now, Kind: RecRetire, IDs: ids}, rollback)
	if err != nil {
		return err
	}
	if o.events != nil {
		for _, id := range ids {
			delete(o.lastState, id)
		}
		o.publish(events.Event{At: now, Kind: events.KindRetire, Jobs: ids, JournalSeq: seq})
	}
	return o.snapshotLocked()
}

// snapshotLocked cuts a durable snapshot and resets the journal.
// Write-then-rename keeps a crash from ever leaving a half-written
// snapshot next to a truncated journal, and the snapshot (file bytes
// and directory entry both) is fsync'd before the journal truncates:
// the journal may only shrink once the state it covered is durable
// elsewhere. On any failure the journal is left intact, so recovery
// still replays the full record set.
func (o *Operator) snapshotLocked() error {
	if o.snapPath == "" {
		o.sinceSnp = 0 // in-memory: there is nothing to make durable
		return nil
	}
	snap := FleetSnapshot{
		Seq:      o.j.Seq(),
		Now:      o.now(),
		Fleet:    o.spec,
		Policy:   o.m.Policy(),
		Scenario: o.m.Scenario(),
	}
	for _, id := range o.doneIDs {
		snap.Done = append(snap.Done, o.done[id])
	}
	snap.Jobs = o.m.liveJobs()
	doc, err := EncodeFleetSnapshot(snap)
	if err != nil {
		return err
	}
	tmp := o.snapPath + ".tmp"
	if err := writeFileSync(tmp, doc); err != nil {
		return err
	}
	if err := os.Rename(tmp, o.snapPath); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(o.snapPath)); err != nil {
		return err
	}
	if err := o.j.Reset(snap.Seq); err != nil {
		return err
	}
	o.sinceSnp = 0
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing: a
// rename may only publish bytes that are already on disk.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory, making a rename within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot forces a snapshot now (the loop also cuts them on its own).
func (o *Operator) Snapshot() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapshotLocked()
}

// stopLoop stops the event loop exactly once; Close and Abort share it
// so any combination or repetition of the two never double-closes.
func (o *Operator) stopLoop() {
	o.stopOnce.Do(func() { close(o.stop) })
	o.wg.Wait()
}

// Close retires what it can, cuts a final snapshot, and closes the
// journal. The operator is unusable afterwards.
func (o *Operator) Close() error {
	o.stopLoop()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.publishLocked() // final transitions precede the retire event
	_ = o.tryRetireLocked()
	err := o.snapshotLocked()
	if cerr := o.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort simulates a crash for tests and fast shutdowns: the loop stops
// and the journal closes with no retirement and no snapshot — exactly
// the state a kill -9 leaves behind (minus any torn tail).
func (o *Operator) Abort() error {
	o.stopLoop()
	return o.j.Close()
}

// jobByID returns the live job, as submitted, by ID (manager helper for
// rollback).
func (m *Manager) jobByID(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j.job, true
	}
	return Job{}, false
}

// liveJobs lists the live jobs, as submitted, in the canonical trace
// order, giving snapshots stable bytes.
func (m *Manager) liveJobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trace().Jobs
}
