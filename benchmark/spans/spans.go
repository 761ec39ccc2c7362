// Package spans records timed spans in memory during a traced benchmark
// run and writes them at the end as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly. Recording is one slice
// append per span, and nothing is written until the run ends.
package spans

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call at a layer boundary. Parent names the span
// that caused it; spans of one request share Request.
type Span struct {
	Name    string
	Parent  string
	Request int
	Start   time.Time
	End     time.Time
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans from one goroutine.
type Recorder struct {
	origin time.Time
	spans  []Span
}

// New starts a recorder; trace timestamps count from now.
func New() *Recorder { return &Recorder{origin: time.Now()} }

// Begin opens a span and returns the function that closes it, which
// reports the span's duration.
func (r *Recorder) Begin(name, parent string, request int) func() time.Duration {
	s := Span{Name: name, Parent: parent, Request: request, Start: time.Now()}
	return func() time.Duration {
		s.End = time.Now()
		r.spans = append(r.spans, s)
		return s.Dur()
	}
}

// Spans returns every closed span in closing order.
func (r *Recorder) Spans() []Span { return r.spans }

// Durations groups span durations by name, keeping only spans whose
// parent is one of parents (all spans when parents is empty).
func (r *Recorder) Durations(parents ...string) map[string][]time.Duration {
	keep := map[string]bool{}
	for _, p := range parents {
		keep[p] = true
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		if len(parents) == 0 || keep[s.Parent] {
			out[s.Name] = append(out[s.Name], s.Dur())
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes every span to path as Chrome trace-event JSON,
// ordered by start time with enclosing spans first, so viewers nest
// each layer call under the request that made it.
func (r *Recorder) WriteChrome(path string) error {
	evs := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "layer", Ph: "X",
			Ts:  float64(s.Start.Sub(r.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"request": s.Request, "parent": s.Parent},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		return evs[i].Dur > evs[j].Dur
	})
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
