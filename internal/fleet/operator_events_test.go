package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/events"
)

// eventOp builds an operator with a hub attached and its background
// loop already stopped: the test is the only driver, so every tick
// happens at a scripted instant and the stream has exactly one
// possible interleaving.
func eventOp(t *testing.T, eng *engine.Engine, journal string, clock Clock, hub *events.Hub) *Operator {
	t.Helper()
	op, err := NewOperator(eng, Spec{Env: "Hybrid", Nodes: 4}, OperatorConfig{
		Clock:         clock,
		Journal:       journal,
		SnapshotEvery: 1000,
		Events:        hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	op.stopLoop()
	return op
}

// scriptedStream drives the shared soak script on a fresh operator
// journaling at journal ("" = in memory) and returns its full event
// stream as NDJSON bytes.
func scriptedStream(t *testing.T, journal string) []byte {
	t.Helper()
	eng := engine.New(engine.Config{})
	clock := NewFakeClock()
	hub := events.NewHub()
	op := eventOp(t, eng, journal, clock, hub)
	sub := hub.Subscribe(4096)

	opScript(t, op, clock, 0, opScriptLen)
	at(op, clock, 60)
	op.tick()
	at(op, clock, 1500)
	op.tick() // idle barrier: everything retires
	must(t, op.Close())
	hub.Close()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for ev := range sub.Events() {
		must(t, enc.Encode(ev))
	}
	return buf.Bytes()
}

// TestOperatorEventStreamDeterministic is the observability half of
// the determinism contract: two runs of the same script (explicit
// clock instants, explicit ticks) publish byte-identical streams —
// job transitions stamped with their schedule edges, scenario edges
// with their own instants, mutations with their journal sequence. Run
// B keeps its fleet in memory: without a journal file the operator
// must still number, schedule and publish exactly as a durable one.
func TestOperatorEventStreamDeterministic(t *testing.T) {
	a := scriptedStream(t, filepath.Join(t.TempDir(), "fleet.journal"))
	b := scriptedStream(t, "")
	if !bytes.Equal(a, b) {
		t.Fatalf("event streams differ across identical runs:\n--- run A (durable) ---\n%s\n--- run B (in memory) ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("scripted run published no events")
	}
	// Spot-check the life cycle a dashboard depends on: w1 must enter
	// queued, cross running, and land done before the retire event.
	var queued, running, done, retired, fired int = -1, -1, -1, -1, -1
	var evs []events.Event
	dec := json.NewDecoder(bytes.NewReader(a))
	for dec.More() {
		var ev events.Event
		must(t, dec.Decode(&ev))
		evs = append(evs, ev)
	}
	for i, ev := range evs {
		switch {
		case ev.Kind == events.KindJob && ev.Job == "w1" && ev.State == "queued":
			queued = i
		case ev.Kind == events.KindJob && ev.Job == "w1" && ev.State == "running" && running < 0:
			running = i
		case ev.Kind == events.KindJob && ev.Job == "w1" && ev.State == "done" && done < 0:
			done = i
		case ev.Kind == events.KindRetire:
			retired = i
		case ev.Kind == events.KindScenario && ev.State == "fired" && fired < 0:
			fired = i
		}
	}
	if !(queued >= 0 && queued < running && running < done && done < retired) {
		t.Fatalf("w1 lifecycle out of order: queued=%d running=%d done=%d retire=%d\n%s",
			queued, running, done, retired, a)
	}
	if fired < 0 {
		t.Fatalf("scenario edge never fired in stream:\n%s", a)
	}
	// Stream sequence is gap-free and the hub assigned it in order.
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// scriptClock serves scripted readings in order, then repeats the last.
// Its timers never fire: tests using it drive ticks by hand.
type scriptClock struct {
	mu       sync.Mutex
	readings []float64
	last     float64
}

func (c *scriptClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.readings) > 0 {
		c.last, c.readings = c.readings[0], c.readings[1:]
	}
	return c.last
}

func (c *scriptClock) After(float64) <-chan struct{} { return make(chan struct{}) }

// TestOperatorRetirePublishesDone: a tick whose first clock reading
// lands just short of the finish edge and whose retire check lands past
// it must still publish "done" before the retire event.
func TestOperatorRetirePublishesDone(t *testing.T) {
	clock := &scriptClock{}
	hub := events.NewHub()
	op := eventOp(t, engine.New(engine.Config{}), "", clock, hub)
	sub := hub.Subscribe(64)
	must(t, op.Submit(Job{ID: "solo", GPUs: 8, Iterations: 1, Model: pg1()}))
	st, _, err := op.Job("solo")
	must(t, err)
	clock.mu.Lock()
	clock.readings = []float64{st.Finish - 1, st.Finish + 1} // the tick's scan, then its retire check
	clock.mu.Unlock()
	op.tick()
	must(t, op.Abort())
	hub.Close()
	var got []string
	for ev := range sub.Events() {
		got = append(got, ev.Kind+":"+ev.State)
	}
	if want := "job:queued job:running job:done retire:"; strings.Join(got, " ") != want {
		t.Fatalf("stream %v, want %s", got, want)
	}
}

// TestOperatorEventStreamMatchesJournal pins the stream to the
// journal: every mutation event carries the sequence of the record
// that made it durable, in exactly the journal's record order.
func TestOperatorEventStreamMatchesJournal(t *testing.T) {
	eng := engine.New(engine.Config{})
	clock := NewFakeClock()
	hub := events.NewHub()
	dir := t.TempDir()
	op := eventOp(t, eng, filepath.Join(dir, "fleet.journal"), clock, hub)
	sub := hub.Subscribe(4096)

	opScript(t, op, clock, 0, opScriptLen) // no retirement: journal keeps every record
	must(t, op.Abort())
	hub.Close()

	var stream []events.Event
	for ev := range sub.Events() {
		if ev.JournalSeq != 0 {
			stream = append(stream, ev)
		}
	}

	j, recs, err := OpenJournal(filepath.Join(dir, "fleet.journal"))
	must(t, err)
	defer j.Close()
	var muts []Record
	for _, rec := range recs {
		if rec.Kind != RecCreate {
			muts = append(muts, rec)
		}
	}
	if len(stream) != len(muts) {
		t.Fatalf("stream carries %d journal-backed events, journal has %d mutation records", len(stream), len(muts))
	}
	wantKind := map[string]string{
		RecSubmit:      events.KindJob,
		RecCancel:      events.KindJob,
		RecApplyEvent:  events.KindScenario,
		RecSetScenario: events.KindScenario,
		RecSetPolicy:   events.KindPolicy,
		RecRetire:      events.KindRetire,
	}
	for i, rec := range muts {
		ev := stream[i]
		if ev.JournalSeq != rec.Seq {
			t.Fatalf("event %d: journal_seq %d, record seq %d", i, ev.JournalSeq, rec.Seq)
		}
		if ev.At != rec.At {
			t.Fatalf("event %d: at %g, record at %g", i, ev.At, rec.At)
		}
		if ev.Kind != wantKind[rec.Kind] {
			t.Fatalf("event %d: kind %q for record kind %q", i, ev.Kind, rec.Kind)
		}
	}
}

// TestOperatorHasRetireRace is the regression for the Has TOCTOU: the
// retired-map check used to run under o.mu while the live check ran
// after unlock, so a job moving from live to retired between the two
// reads made Has report false for an ID the operator knows — which is
// exactly the hole a duplicate submit slips through. Hammer Has and
// duplicate submits across repeated retirement cycles; the answer must
// never flicker.
func TestOperatorHasRetireRace(t *testing.T) {
	eng := engine.New(engine.Config{})
	clock := NewFakeClock()
	op := testOp(t, eng, t.TempDir(), clock, 1000)
	defer op.Abort()

	const cycles = 8
	ids := make([]string, cycles)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
	}

	var submitted atomic.Int32 // index below which Has must answer true
	var lost, dups atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := int(submitted.Load())
				for i := 0; i < n; i++ {
					if !op.Has(ids[i]) {
						lost.Add(1)
					}
					// A duplicate of a known ID must always refuse,
					// mid-retirement included.
					if err := op.Submit(Job{ID: ids[i], GPUs: 8, Iterations: 1, Model: pg1()}); err == nil {
						dups.Add(1)
					}
				}
			}
		}()
	}

	for i := 0; i < cycles; i++ {
		must(t, op.Submit(Job{ID: ids[i], GPUs: 8, Iterations: 1, Model: pg1()}))
		submitted.Store(int32(i + 1))
		clock.Advance(2000) // past the finish edge
		for op.Len() > 0 {  // idle barrier: this tick retires
			op.tick()
		}
	}
	close(stop)
	wg.Wait()

	if n := lost.Load(); n != 0 {
		t.Fatalf("Has answered false %d times for IDs the operator knows", n)
	}
	if n := dups.Load(); n != 0 {
		t.Fatalf("%d duplicate submits were admitted", n)
	}
	if got := len(op.Done()); got != cycles {
		t.Fatalf("retired %d jobs, want %d", got, cycles)
	}
}
