package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInOrder(t *testing.T) {
	eng := NewEngine()
	var got []float64
	for _, at := range []float64{3, 1, 2, 1.5} {
		at := at
		eng.At(at, func() { got = append(got, at) })
	}
	end := eng.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []float64{1, 1.5, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5, func() { got = append(got, i) })
	}
	eng.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	eng := NewEngine()
	var trace []float64
	var step func(depth int)
	step = func(depth int) {
		trace = append(trace, eng.Now())
		if depth < 5 {
			eng.PostAfter(1.5, func() { step(depth + 1) })
		}
	}
	eng.At(0, func() { step(0) })
	end := eng.Run()
	if end != 7.5 {
		t.Fatalf("end = %v, want 7.5", end)
	}
	if len(trace) != 6 {
		t.Fatalf("trace length = %d, want 6", len(trace))
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.At(1, func() { fired = true })
	eng.Cancel(ev)
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after run", eng.Pending())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(5, func() {})
	eng.Run()
	ev := eng.At(6, func() {})
	for name, bad := range map[string]func(){
		"At in the past":         func() { eng.At(1, func() {}) },
		"At NaN":                 func() { eng.At(math.NaN(), func() {}) },
		"Reschedule in the past": func() { eng.Reschedule(ev, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

func TestRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	eng.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if eng.Now() != 2.5 {
		t.Fatalf("now = %v, want 2.5", eng.Now())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run", fired)
	}
}

func TestEngineReset(t *testing.T) {
	eng := NewEngine()
	eng.At(1, func() {})
	eng.Run()
	eng.Reset()
	if eng.Now() != 0 || eng.Pending() != 0 || eng.Fired() != 0 {
		t.Fatal("reset did not clear engine state")
	}
	// Engine is reusable after Reset.
	ok := false
	eng.At(2, func() { ok = true })
	eng.Run()
	if !ok {
		t.Fatal("engine unusable after Reset")
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(times []float64) bool {
		eng := NewEngine()
		var fired []float64
		for _, raw := range times {
			at := raw
			if at < 0 {
				at = -at
			}
			if at != at { // NaN guard
				continue
			}
			eng.At(at, func() { fired = append(fired, at) })
		}
		eng.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an engine fires exactly as many events as were scheduled and
// not cancelled.
func TestEventCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		eng := NewEngine()
		n := rng.Intn(200)
		cancelled := 0
		count := 0
		events := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, eng.At(rng.Float64()*100, func() { count++ }))
		}
		for _, ev := range events {
			if rng.Float64() < 0.3 {
				eng.Cancel(ev)
				cancelled++
			}
		}
		eng.Run()
		if count != n-cancelled {
			t.Fatalf("trial %d: fired %d, want %d", trial, count, n-cancelled)
		}
	}
}

func TestEngineReschedule(t *testing.T) {
	eng := NewEngine()
	var got []string
	a := eng.At(1, func() { got = append(got, "a") })
	eng.At(2, func() { got = append(got, "b") })
	eng.At(3, func() { got = append(got, "c") })
	// Re-keyed to a tie with c, a fires after it: the fresh sequence
	// number is the order cancel-then-At would give.
	if !eng.Reschedule(a, 3) {
		t.Fatal("Reschedule of a pending event reported false")
	}
	if eng.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", eng.Pending())
	}
	eng.Run()
	if fmt.Sprint(got) != "[b c a]" {
		t.Fatalf("order %v, want [b c a]", got)
	}
	if eng.Reschedule(a, 5) || eng.Reschedule(Event{}, 5) {
		t.Fatal("Reschedule of a fired or zero handle reported true")
	}
	if eng.Pending() != 0 {
		t.Fatalf("stale Reschedule left %d pending", eng.Pending())
	}
}

// A handle outlives its record: once the event fires, the slot is reused
// by the next At, and cancelling the old handle must not touch the new
// event — the case scenario.Runtime.Stop hits, since it cancels every
// handle it ever took.
func TestStaleHandleAfterReuse(t *testing.T) {
	eng := NewEngine()
	old := eng.At(1, func() {})
	eng.Run()
	fired := false
	fresh := eng.At(2, func() { fired = true })
	if fresh.slot != old.slot {
		t.Fatalf("slot not reused: old %d, fresh %d", old.slot, fresh.slot)
	}
	eng.Cancel(old)
	eng.Cancel(Event{})
	if eng.Reschedule(old, 9) {
		t.Fatal("stale handle rescheduled")
	}
	eng.Run()
	if !fired || eng.Now() != 2 {
		t.Fatalf("fired=%v now=%v: a stale handle reached the reused record", fired, eng.Now())
	}
	// Reset invalidates every outstanding handle the same way.
	pending := eng.At(5, func() { t.Fatal("event from before Reset fired") })
	eng.Reset()
	eng.At(1, func() {})
	eng.Cancel(pending)
	if eng.Pending() != 1 {
		t.Fatalf("pre-Reset handle cancelled a new event: pending %d", eng.Pending())
	}
}

// A reserved engine grows no container while its pending events stay
// within the reservation.
func TestEngineReserve(t *testing.T) {
	fn := func() {}
	allocs := func(reserve bool) float64 {
		return testing.AllocsPerRun(20, func() {
			eng := NewEngine()
			if reserve {
				eng.Reserve(32, 32)
			}
			for i := 0; i < 32; i++ {
				eng.At(float64(i%7), fn)
				eng.Post(float64(i%5)+0.5, fn)
			}
			eng.Run()
		})
	}
	// The engine, then the handle heap, records, free list and later
	// heap, each once.
	if grown, sized := allocs(false), allocs(true); sized != 5 || grown <= sized {
		t.Fatalf("a reserved engine allocated %v times, an unreserved one %v; want 5 and more", sized, grown)
	}
}

// A warmed engine schedules, posts, reschedules, cancels and fires
// without allocating: records and heap entries come back from the
// engine's own free list and slices, and posted events from its heap of
// later ones and its same-instant lane.
func TestEngineSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	n := 0
	fn := func() { n++ }
	loop := func() {
		var evs [16]Event
		for i := range evs {
			evs[i] = eng.At(eng.Now()+float64(i%5), fn)
		}
		for i := 0; i < len(evs); i += 3 {
			eng.Reschedule(evs[i], eng.Now()+7)
		}
		eng.Cancel(evs[1])
		eng.RunUntil(eng.Now() + 2)
		eng.Run()
	}
	// Posted events chain: each posts two more, one at its own instant
	// (the lane) and one later, until the depth runs out.
	var chain func(depth int) func()
	var chains [5]func()
	chain = func(depth int) func() {
		return func() {
			n++
			if depth+1 < len(chains) {
				eng.PostAfter(0, chains[depth+1])
				eng.PostAfter(float64(depth%3)*0.5, chains[depth+1])
			}
		}
	}
	for i := range chains {
		chains[i] = chain(i)
	}
	posts := func() {
		for i := 0; i < 8; i++ {
			eng.Post(eng.Now()+float64(i%3), chains[0])
			eng.PostAfter(0, fn)
		}
		eng.At(eng.Now()+1, fn)
		eng.Run()
	}
	for name, run := range map[string]func(){"handles": loop, "posts": posts} {
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("warm %s loop allocated %v times per run", name, allocs)
		}
	}
	if n == 0 {
		t.Fatal("no event fired")
	}
}
