// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every timed component in the repository: the flow-level
// network simulator, the pipeline-schedule executor, and the end-to-end
// trainer. Time is virtual (measured in seconds as float64); events fire in
// (time, sequence) order so that simulations are fully reproducible.
//
// The pending queue is a typed binary heap of (At, seq, record) entries
// over a per-engine slab of event records. Cancel removes an entry at
// once, Reschedule re-keys one in place, and fired or cancelled records
// return to a free list, so a warmed engine schedules, fires and
// reschedules without allocating. Handles carry the generation of the
// record they were issued for; once that record fires or is cancelled
// the handle is stale, and operations on it are no-ops.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// Event is a handle to a scheduled callback, returned by At and After.
// The zero Event refers to no event.
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

// entry is one heap element. Keys live in the heap itself so sifting
// compares without touching the records.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	heap    []entry
	recs    []record
	free    []int32
	nextSeq uint64
	fired   uint64
	running bool
	halted  bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
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
	e.heap = append(e.heap, entry{at: t, seq: e.nextSeq, slot: slot})
	e.nextSeq++
	e.up(len(e.heap) - 1)
	return Event{slot: slot, gen: r.gen}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) Event {
	return e.At(e.now+d, fn)
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
	e.heap[i].at = t
	e.heap[i].seq = e.nextSeq
	e.nextSeq++
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
		if !en.before(&e.heap[p]) {
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
		if r := c + 1; r < n && e.heap[r].before(&e.heap[c]) {
			c = r
		}
		if !e.heap[c].before(&en) {
			break
		}
		e.move(i, e.heap[c])
		i = c
	}
	e.move(i, en)
	return i > start
}

// step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event fired. The record is released before the
// callback runs, so the callback may reuse its slot and the event's own
// handle is already stale inside it.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	fn := e.recs[top.slot].fn
	e.release(top.slot)
	e.remove(0)
	e.now = top.at
	e.fired++
	fn()
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
	for !e.halted && len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			break
		}
		e.step()
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
	e.now = 0
	e.nextSeq = 0
	e.fired = 0
	e.halted = false
}
