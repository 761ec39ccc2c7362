package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The engine the package shipped before its typed heap: a container/heap
// of *oracleEvent with lazy (mark-dead) cancellation and one allocation
// per event. It is kept, unchanged but for its names, as the oracle the
// property test below holds the typed engine to.

// oracleEvent is a scheduled callback. Events compare by (At, seq): two events at
// the same instant fire in scheduling order, which keeps runs deterministic.
type oracleEvent struct {
	At    Time
	Fn    func()
	seq   uint64
	index int // heap index; -1 once popped or cancelled
	dead  bool
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *oracleEvent) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// oracleHeap implements container/heap over pending events.
type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*oracleEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// oracleEngine is a discrete-event simulator. The zero value is not usable; create
// one with newOracleEngine.
type oracleEngine struct {
	now     Time
	pending oracleHeap
	nextSeq uint64
	fired   uint64
	running bool
	halted  bool
}

// newOracleEngine returns an engine with the clock at zero and no pending events.
func newOracleEngine() *oracleEngine {
	return &oracleEngine{}
}

// Now returns the current virtual time.
func (e *oracleEngine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *oracleEngine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *oracleEngine) Pending() int {
	n := 0
	for _, ev := range e.pending {
		if !ev.dead {
			n++
		}
	}
	return n
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *oracleEngine) At(t Time, fn func()) *oracleEvent {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	ev := &oracleEvent{At: t, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.pending, ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *oracleEngine) After(d float64, fn func()) *oracleEvent {
	return e.At(e.now+d, fn)
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event fired.
func (e *oracleEngine) Step() bool {
	for len(e.pending) > 0 {
		ev := heap.Pop(&e.pending).(*oracleEvent)
		if ev.dead {
			continue
		}
		e.now = ev.At
		e.fired++
		ev.Fn()
		return true
	}
	return false
}

// Run fires events until none remain (or Halt is called), returning the
// final virtual time.
func (e *oracleEngine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.halted && e.Step() {
	}
	return e.now
}

// RunUntil fires events with At <= deadline; the clock ends at
// min(deadline, last event time) if events remain, else at the last event.
// A Halt from inside an event callback stops the loop immediately, leaving
// the clock where the halting event fired.
func (e *oracleEngine) RunUntil(deadline Time) Time {
	for !e.halted && len(e.pending) > 0 {
		// Peek: pending[0] is the earliest live event only after skipping
		// dead ones, so pop-and-check like Step does.
		next := e.pending[0]
		if next.dead {
			heap.Pop(&e.pending)
			continue
		}
		if next.At > deadline {
			break
		}
		e.Step()
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Halt makes Run and RunUntil return before firing their next event. An
// event callback calls it when it can prove the rest of the simulation is
// not worth computing (branch-and-bound aborts); the queue is left as-is,
// so the simulation state is abandoned, not completed.
func (e *oracleEngine) Halt() { e.halted = true }

// Halted reports whether Halt has been called since the last Reset.
func (e *oracleEngine) Halted() bool { return e.halted }

// Reset returns the engine to time zero with no pending events.
func (e *oracleEngine) Reset() {
	e.now = 0
	e.pending = nil
	e.nextSeq = 0
	e.fired = 0
	e.halted = false
}

// scripted is the engine surface the differential test drives. Events
// are named by labels, assigned in scheduling order, so both engines
// under the same script give the same event the same label. A posted
// event takes a label too, but no handle: cancelling or rescheduling it
// does nothing.
type scripted interface {
	at(t Time, fn func())
	post(t Time, fn func())
	postAfter(d float64, fn func())
	cancel(label int)
	reschedule(label int, t Time) bool
	halt()
	runUntil(deadline Time) Time
	run() Time
	reset()
	now() Time
	fired() uint64
	pending() int
	labels() int
}

// typedEngine adapts the engine under test.
type typedEngine struct {
	eng     *Engine
	handles []Event // the zero Event for a posted label
}

func (e *typedEngine) at(t Time, fn func()) { e.handles = append(e.handles, e.eng.At(t, fn)) }

func (e *typedEngine) post(t Time, fn func()) {
	e.eng.Post(t, fn)
	e.handles = append(e.handles, Event{})
}

func (e *typedEngine) postAfter(d float64, fn func()) {
	e.eng.PostAfter(d, fn)
	e.handles = append(e.handles, Event{})
}

func (e *typedEngine) cancel(label int)              { e.eng.Cancel(e.handles[label]) }
func (e *typedEngine) reschedule(l int, t Time) bool { return e.eng.Reschedule(e.handles[l], t) }
func (e *typedEngine) halt()                         { e.eng.Halt() }
func (e *typedEngine) runUntil(t Time) Time          { return e.eng.RunUntil(t) }
func (e *typedEngine) run() Time                     { return e.eng.Run() }
func (e *typedEngine) reset()                        { e.eng.Reset() }
func (e *typedEngine) now() Time                     { return e.eng.Now() }
func (e *typedEngine) fired() uint64                 { return e.eng.Fired() }
func (e *typedEngine) pending() int                  { return e.eng.Pending() }
func (e *typedEngine) labels() int                   { return len(e.handles) }

// oracleAdapter drives the oracle engine. The oracle has no Reschedule;
// its specification is cancel-then-At with the same callback, for an
// event that is still pending, and nothing otherwise. Nor has it posted
// events: a post is an At whose label no cancel or reschedule touches.
// live tracks which labels are pending, since the oracle's own handles
// do not survive a Reset truthfully.
//
// The engine stores a −0 time as +0 (its keys compare the time's bits),
// so the oracle is handed +0 for it: a script scheduling at −0 checks
// that the engine orders it exactly as +0.
type oracleAdapter struct {
	eng     *oracleEngine
	handles []*oracleEvent
	live    []bool
	posted  []bool
}

func (o *oracleAdapter) wrap(fn func()) func() {
	label := len(o.handles)
	return func() {
		o.live[label] = false
		fn()
	}
}

// positive maps −0 to +0.
func positive(t Time) Time {
	if t == 0 {
		return 0
	}
	return t
}

func (o *oracleAdapter) add(ev *oracleEvent, posted bool) {
	o.handles = append(o.handles, ev)
	o.live = append(o.live, true)
	o.posted = append(o.posted, posted)
}

func (o *oracleAdapter) at(t Time, fn func())   { o.add(o.eng.At(positive(t), o.wrap(fn)), false) }
func (o *oracleAdapter) post(t Time, fn func()) { o.add(o.eng.At(positive(t), o.wrap(fn)), true) }

func (o *oracleAdapter) postAfter(d float64, fn func()) {
	o.add(o.eng.After(d, o.wrap(fn)), true)
}

func (o *oracleAdapter) cancel(label int) {
	if o.posted[label] {
		return
	}
	o.handles[label].Cancel()
	o.live[label] = false
}

func (o *oracleAdapter) reschedule(label int, t Time) bool {
	if !o.live[label] || o.posted[label] {
		return false
	}
	old := o.handles[label]
	old.Cancel()
	o.handles[label] = o.eng.At(positive(t), old.Fn)
	return true
}

func (o *oracleAdapter) halt()                { o.eng.Halt() }
func (o *oracleAdapter) runUntil(t Time) Time { return o.eng.RunUntil(t) }
func (o *oracleAdapter) run() Time            { return o.eng.Run() }
func (o *oracleAdapter) now() Time            { return o.eng.Now() }
func (o *oracleAdapter) fired() uint64        { return o.eng.Fired() }
func (o *oracleAdapter) pending() int         { return o.eng.Pending() }
func (o *oracleAdapter) labels() int          { return len(o.handles) }

func (o *oracleAdapter) reset() {
	o.eng.Reset()
	for i := range o.live {
		o.live[i] = false
	}
}

// Script actions, at top level or inside a callback.
const (
	actAt = iota
	actPost
	actPostAfter
	actCancel
	actCancelSelf
	actReschedule
	actHalt
	actRunUntil
	actRun
	actReset
)

// action is one scripted call. dt offsets At, Post, PostAfter,
// Reschedule and RunUntil from the current time; negZero passes a time
// (or PostAfter delay) of zero as −0; target picks a label when the
// action runs (see pick); body is the callback of a scheduled event.
type action struct {
	kind    int
	dt      float64
	negZero bool
	target  int
	body    []action
}

// pick resolves target against the n labels issued so far: odd targets
// pick among the 16 newest labels, which are mostly still pending, and
// even ones among all of them, which are mostly fired or cancelled.
func (a action) pick(n int) int {
	if a.target%2 == 1 {
		return n - 1 - a.target/2%min(n, 16)
	}
	return a.target / 2 % n
}

// offset returns the action's offset from the current time, t0.
func (a action) offset(t0 Time) Time {
	t := t0 + a.dt
	if a.negZero && t == 0 {
		return math.Copysign(0, -1)
	}
	return t
}

// driver runs actions against one engine and logs every observation.
type driver struct {
	e   scripted
	log []string
}

func (d *driver) note(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *driver) do(a action, self int) {
	switch a.kind {
	case actAt, actPost, actPostAfter:
		label := d.e.labels()
		body := a.body
		fn := func() {
			d.note("fire %d at %v fired %d pending %d", label, d.e.now(), d.e.fired(), d.e.pending())
			for _, b := range body {
				d.do(b, label)
			}
		}
		switch a.kind {
		case actAt:
			d.e.at(a.offset(d.e.now()), fn)
		case actPost:
			d.e.post(a.offset(d.e.now()), fn)
		default:
			d.e.postAfter(a.offset(0), fn)
		}
	case actCancel:
		if n := d.e.labels(); n > 0 {
			d.e.cancel(a.pick(n))
		}
	case actCancelSelf:
		d.e.cancel(self)
	case actReschedule:
		if n := d.e.labels(); n > 0 {
			l := a.pick(n)
			d.note("reschedule %d -> %v", l, d.e.reschedule(l, a.offset(d.e.now())))
		}
	case actHalt:
		d.e.halt()
	case actRunUntil:
		d.note("runUntil -> %v", d.e.runUntil(a.offset(d.e.now())))
	case actRun:
		d.note("run -> %v", d.e.run())
	case actReset:
		d.e.reset()
	}
	d.note("now %v fired %d pending %d", d.e.now(), d.e.fired(), d.e.pending())
}

// source draws a script's choices: a seeded *rand.Rand, or fuzz input.
type source interface {
	Intn(n int) int
}

// genTime draws offsets on a half-second grid. Half the draws fall
// within two seconds, so many events tie at one instant (the current one
// included); the rest spread over twenty, so enough events stay pending
// that a removal from the middle of the heap must sift both ways.
func genTime(src source) float64 {
	if src.Intn(2) == 0 {
		return float64(src.Intn(5)) * 0.5
	}
	return float64(src.Intn(40)) * 0.5
}

// genSchedule draws a scheduling action: At for half of them, so most
// cancels and reschedules find a handle, and Post or PostAfter for the
// rest. One in eight passes a zero time as −0.
func genSchedule(src source, body []action) action {
	kinds := [4]int{actAt, actAt, actPost, actPostAfter}
	return action{kind: kinds[src.Intn(4)], dt: genTime(src), negZero: src.Intn(8) == 0, body: body}
}

// genReschedule draws a reschedule; one in four moves its event to the
// current instant, where it ties with whatever is due there.
func genReschedule(src source) action {
	a := action{kind: actReschedule, dt: genTime(src), target: src.Intn(1 << 20), negZero: src.Intn(8) == 0}
	if src.Intn(4) == 0 {
		a.dt = 0
	}
	return a
}

// genBody draws a callback body: nested scheduling and posting, cancels
// of any label (fired, pending, cancelled, posted, reused-slot stale, or
// the event itself), reschedules, and the occasional Halt.
func genBody(src source, depth int) []action {
	if depth >= 3 {
		return nil
	}
	body := make([]action, src.Intn(4))
	for i := range body {
		switch r := src.Intn(20); {
		case r < 6:
			body[i] = genSchedule(src, genBody(src, depth+1))
		case r < 10:
			body[i] = action{kind: actCancel, target: src.Intn(1 << 20)}
		case r < 12:
			body[i] = action{kind: actCancelSelf}
		case r < 19:
			body[i] = genReschedule(src)
		default:
			body[i] = action{kind: actHalt}
		}
	}
	return body
}

func genTop(src source) action {
	switch r := src.Intn(40); {
	case r < 20:
		return genSchedule(src, genBody(src, 0))
	case r < 25:
		return action{kind: actCancel, target: src.Intn(1 << 20)}
	case r < 31:
		return genReschedule(src)
	case r < 36:
		return action{kind: actRunUntil, dt: genTime(src), negZero: src.Intn(8) == 0}
	case r < 37:
		return action{kind: actRun}
	case r < 38:
		return action{kind: actHalt}
	default:
		return action{kind: actReset}
	}
}

// matchOracle runs top-level actions drawn from src against the engine
// and the oracle, until steps actions ran or src reports itself spent,
// and returns the first observation on which they disagree ("" when
// none does).
func matchOracle(src source, steps int, spent func() bool) string {
	typed := &driver{e: &typedEngine{eng: NewEngine()}}
	oracle := &driver{e: &oracleAdapter{eng: newOracleEngine()}}
	for step := 0; step < steps && !spent(); step++ {
		a := genTop(src)
		typed.do(a, 0)
		oracle.do(a, 0)
		if len(typed.log) != len(oracle.log) {
			return fmt.Sprintf("step %d: %d observations, oracle %d\n%s", step,
				len(typed.log), len(oracle.log), firstDiff(typed.log, oracle.log))
		}
		if diff := firstDiff(typed.log, oracle.log); diff != "" {
			return fmt.Sprintf("step %d: %s", step, diff)
		}
	}
	return ""
}

// TestEngineMatchesOracle drives the typed engine and the container/heap
// oracle with the same seeded call sequences and requires the same
// firing order, clock, fired count, pending count and Reschedule answers
// after every call, callbacks included.
func TestEngineMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if diff := matchOracle(rng, 150, func() bool { return false }); diff != "" {
			t.Fatalf("seed %d %s", seed, diff)
		}
	}
}

// fuzzSource reads a script's choices from fuzz input: each draw takes
// as many bytes as its range needs, and a spent input draws zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) Intn(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		v <<= 8
		if len(s.b) > 0 {
			v |= int(s.b[0])
			s.b = s.b[1:]
		}
	}
	return v % n
}

// FuzzEngineOrder is TestEngineMatchesOracle over scripts the fuzzer
// writes: the input's bytes are the choices the seeded generator would
// draw, so every script is one of the same language.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 256)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &fuzzSource{b: data}
		if diff := matchOracle(src, 400, func() bool { return len(src.b) == 0 }); diff != "" {
			t.Fatal(diff)
		}
	})
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("observation %d: %q, oracle %q", i, got[i], want[i])
		}
	}
	return ""
}
