// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every timed component in the repository: the flow-level
// network simulator, the pipeline-schedule executor, and the end-to-end
// trainer. Time is virtual (measured in seconds as float64); events fire in
// (time, sequence) order so that simulations are fully reproducible.
//
// Pending events live in three containers, each ordered by the same
// unique key, the bits of the event's time followed by its sequence
// number:
//
//   - Events scheduled with At take a handle. They sit in a typed binary
//     heap of (key, slot) entries over a per-engine slab of records, so
//     Cancel removes an entry at once and Reschedule re-keys one in place.
//     Fired or cancelled records return to a free list. Handles carry the
//     generation of the record they were issued for; once that record
//     fires or is cancelled the handle is stale, and operations on it are
//     no-ops.
//   - Events posted with Post or PostAfter take no handle. One due later
//     goes into a second heap whose entries carry their callback and no
//     record, so sifting it never rewrites a record's position.
//   - A posted event due at the current instant goes into a FIFO lane. It
//     is appended in sequence order, at the one instant the lane can hold,
//     so the lane is already sorted and holds nothing that can go stale.
//
// Every step fires the least of the three heads. A warmed engine
// schedules, posts, fires and reschedules without allocating.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// Event is a handle to a scheduled callback, returned by At. The zero
// Event refers to no event.
type Event struct {
	slot int32
	gen  uint32
}

// record is one event slot of the engine's slab. gen advances every time
// the slot is released, which invalidates every handle issued for it; a
// handle is live exactly while its generation matches, and a live record
// is always in the heap at index pos.
type record struct {
	fn  func()
	pos int32
	gen uint32
}

// key orders events: the bits of the event's time, then its sequence
// number. Times are never negative and −0 is stored as +0, and the bits
// of non-negative floats order as the floats do, so comparing keys as
// one 128-bit unsigned value is the (At, seq) order. Sequence numbers are
// unique, so no two keys are equal.
type key struct {
	at, seq uint64
}

func (a key) less(b key) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// entry is one element of the handle heap. Keys live in the heap itself
// so sifting compares without touching the records.
type entry struct {
	key
	slot int32
}

// posted is one handle-free event: its key and its callback.
type posted struct {
	key
	fn func()
}

// Where the least pending event lives.
const (
	inNone = iota
	inLane
	inLater
	inHeap
)

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   Time
	heap  []entry // events with handles
	recs  []record
	free  []int32
	later []posted // posted events due after the current instant, a heap
	lane  []posted // posted events due at the current instant, from head on
	head  int

	nextSeq uint64
	fired   uint64
	running bool
	halted  bool
	// A search prepares its cells' engines back to back and then runs
	// them on different threads; without the padding two neighbouring
	// engines share a cache line, and each slows the other's events.
	_ [64]byte
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Reserve sizes the engine's containers up front for the given numbers
// of pending events with handles and of posted events due later, so a
// simulation whose pending events stay within them grows neither. The
// lane is left to grow: it holds the posted events of one instant.
func (e *Engine) Reserve(handles, posts int) {
	e.heap = grow(e.heap, handles)
	e.recs = grow(e.recs, handles)
	e.free = grow(e.free, handles)
	e.later = grow(e.later, posts)
}

func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	out := make([]T, len(s), n)
	copy(out, s)
	return out
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.heap) + len(e.later) + len(e.lane) - e.head }

// At schedules fn to run at absolute virtual time t and returns its
// handle. Scheduling in the past panics: it would silently reorder
// causality.
func (e *Engine) At(t Time, fn func()) Event {
	e.check(t)
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.recs))
		e.recs = append(e.recs, record{gen: 1})
	}
	r := &e.recs[slot]
	r.fn = fn
	r.pos = int32(len(e.heap))
	e.heap = append(e.heap, entry{key: e.stamp(t), slot: slot})
	e.up(len(e.heap) - 1)
	return Event{slot: slot, gen: r.gen}
}

// Post schedules fn to run at absolute virtual time t, in the same order
// At would, but takes no handle: a posted event can be neither cancelled
// nor rescheduled. Posting in the past panics, as At does.
func (e *Engine) Post(t Time, fn func()) {
	e.check(t)
	p := posted{key: e.stamp(t), fn: fn}
	if t == e.now {
		e.lane = append(e.lane, p)
		return
	}
	e.pushLater(p)
}

// PostAfter posts fn to run d seconds from now.
func (e *Engine) PostAfter(d float64, fn func()) {
	e.Post(e.now+d, fn)
}

// Cancel removes a pending event from the queue. Cancelling an
// already-fired or already-cancelled event, or the zero Event, is a no-op.
func (e *Engine) Cancel(ev Event) {
	if !e.live(ev) {
		return
	}
	i := int(e.recs[ev.slot].pos)
	e.release(ev.slot)
	e.remove(i)
}

// Reschedule moves a pending event to absolute time t, keeping its
// callback and handle. It takes a fresh sequence number, so the event
// fires exactly where cancelling it and scheduling its callback anew at t
// would. It reports whether ev was pending; a fired, cancelled or zero
// handle is left alone. Rescheduling into the past panics, as At does.
func (e *Engine) Reschedule(ev Event, t Time) bool {
	e.check(t)
	if !e.live(ev) {
		return false
	}
	i := int(e.recs[ev.slot].pos)
	e.heap[i].key = e.stamp(t)
	e.fix(i)
	return true
}

// check rejects scheduling times that would break causality.
func (e *Engine) check(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
}

// stamp keys a checked time with the next sequence number, storing −0
// as +0.
func (e *Engine) stamp(t Time) key {
	k := key{at: math.Float64bits(t), seq: e.nextSeq}
	if t == 0 {
		k.at = 0
	}
	e.nextSeq++
	return k
}

// live reports whether ev still names a pending event.
func (e *Engine) live(ev Event) bool {
	return ev.gen != 0 && e.recs[ev.slot].gen == ev.gen
}

// release invalidates the slot's handles and returns it to the free list.
func (e *Engine) release(slot int32) {
	r := &e.recs[slot]
	r.fn = nil
	r.pos = -1
	if r.gen++; r.gen == 0 { // wrapped: generation 0 is the zero Event's
		r.gen = 1
	}
	e.free = append(e.free, slot)
}

// remove deletes heap index i: the last entry takes its place and sifts.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.move(i, e.heap[last])
	}
	e.heap = e.heap[:last]
	if i != last {
		e.fix(i)
	}
}

// move places en at heap index i and records the position.
func (e *Engine) move(i int, en entry) {
	e.heap[i] = en
	e.recs[en.slot].pos = int32(i)
}

// fix restores the heap order around index i after its key changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

func (e *Engine) up(i int) {
	en := e.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !en.less(e.heap[p].key) {
			break
		}
		e.move(i, e.heap[p])
		i = p
	}
	e.move(i, en)
}

// down sifts index i toward the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	en := e.heap[i]
	start, n := i, len(e.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.heap[r].less(e.heap[c].key) {
			c = r
		}
		if !e.heap[c].less(en.key) {
			break
		}
		e.move(i, e.heap[c])
		i = c
	}
	e.move(i, en)
	return i > start
}

// pushLater adds a posted event to the heap of later ones.
func (e *Engine) pushLater(p posted) {
	h := append(e.later, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(h[parent].key) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = p
	e.later = h
}

// popLater removes the least of the later posted events: the last entry
// takes the root and sifts down.
func (e *Engine) popLater() {
	h := e.later
	last := len(h) - 1
	p := h[last]
	h = h[:last]
	e.later = h
	if last == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].less(h[c].key) {
			c = r
		}
		if !h[c].less(p.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = p
}

// least returns the key of the earliest pending event and the container
// holding it (inNone when nothing is pending).
func (e *Engine) least() (key, int) {
	k, in := key{at: math.MaxUint64, seq: math.MaxUint64}, inNone
	if e.head < len(e.lane) {
		k, in = e.lane[e.head].key, inLane
	}
	if len(e.later) > 0 && e.later[0].less(k) {
		k, in = e.later[0].key, inLater
	}
	if len(e.heap) > 0 && e.heap[0].less(k) {
		k, in = e.heap[0].key, inHeap
	}
	return k, in
}

// fire takes the least pending event, keyed k, out of container in,
// advances the clock to its time and runs it. A handle's record is
// released before the callback runs, so the callback may reuse its slot
// and the event's own handle is already stale inside it.
func (e *Engine) fire(k key, in int) {
	var fn func()
	switch in {
	case inLane:
		fn = e.lane[e.head].fn
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
	case inLater:
		fn = e.later[0].fn
		e.popLater()
	default:
		slot := e.heap[0].slot
		fn = e.recs[slot].fn
		e.release(slot)
		e.remove(0)
	}
	e.now = math.Float64frombits(k.at)
	e.fired++
	fn()
}

// step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event fired.
func (e *Engine) step() bool {
	k, in := e.least()
	if in == inNone {
		return false
	}
	e.fire(k, in)
	return true
}

// Run fires events until none remain (or Halt is called), returning the
// final virtual time.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.halted && e.step() {
	}
	return e.now
}

// RunUntil fires events with At <= deadline, then moves the clock forward
// to the deadline, whether or not events remain; the clock never moves
// backward, so it stays put when it is already past the deadline. A Halt
// from inside an event callback stops the loop immediately, leaving the
// clock where the halting event fired.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.halted {
		k, in := e.least()
		if in == inNone || math.Float64frombits(k.at) > deadline {
			break
		}
		e.fire(k, in)
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
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called since the last Reset.
func (e *Engine) Halted() bool { return e.halted }

// Reset returns the engine to time zero with no pending events. Handles
// issued before the Reset are stale afterwards.
func (e *Engine) Reset() {
	for _, en := range e.heap {
		e.release(en.slot)
	}
	e.heap = e.heap[:0]
	clear(e.later)
	e.later = e.later[:0]
	clear(e.lane)
	e.lane, e.head = e.lane[:0], 0
	e.now = 0
	e.nextSeq = 0
	e.fired = 0
	e.halted = false
}
