package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"holmes/internal/metrics"
)

// Stats aggregates per-endpoint serving counters. Endpoints register
// lazily on first use; counting on the hot path is atomic increments and
// one histogram observation.
type Stats struct {
	start time.Time
	mu    sync.Mutex
	eps   map[string]*Endpoint
}

func newStats() *Stats {
	return &Stats{start: time.Now(), eps: make(map[string]*Endpoint)}
}

// Endpoint returns (creating on first use) the counter set for name.
func (s *Stats) Endpoint(name string) *Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.eps[name]
	if !ok {
		ep = &Endpoint{}
		s.eps[name] = ep
	}
	return ep
}

// Endpoint carries one route's counters.
type Endpoint struct {
	requests  atomic.Uint64
	errors    atomic.Uint64
	rejected  atomic.Uint64
	coalesced atomic.Uint64
	cached    atomic.Uint64
	inFlight  atomic.Int64
	latency   metrics.Histogram
	window    rateWindow
}

// rateWindowSeconds is the span of the sliding throughput window. Long
// enough to smooth per-second jitter, short enough that a dashboard
// polling it tracks load changes within half a minute.
const rateWindowSeconds = 30

// rateWindow counts completions in per-second buckets over a trailing
// window. A ring of tagged buckets: each slot remembers which absolute
// second it counts, so stale slots cost nothing to expire — they are
// simply overwritten on write and skipped on read. The lifetime
// average this replaces read near zero during a live storm after an
// idle hour; the window reads the storm.
type rateWindow struct {
	mu   sync.Mutex
	secs [rateWindowSeconds]int64  // absolute second each bucket counts
	hits [rateWindowSeconds]uint64 // completions in that second
}

// observe counts one completion at the given instant.
func (w *rateWindow) observe(now time.Time) {
	sec := now.Unix()
	i := int(sec % rateWindowSeconds)
	w.mu.Lock()
	if w.secs[i] != sec {
		w.secs[i], w.hits[i] = sec, 0
	}
	w.hits[i]++
	w.mu.Unlock()
}

// rate reports completions per second over the trailing window ending
// at now. elapsed (seconds the endpoint has existed) shortens the
// divisor on a young server so the first seconds of traffic are not
// diluted by a window that has not filled yet.
func (w *rateWindow) rate(now time.Time, elapsed float64) float64 {
	sec := now.Unix()
	span := float64(rateWindowSeconds)
	if elapsed < span {
		span = elapsed
	}
	if span < 1 {
		span = 1
	}
	var total uint64
	w.mu.Lock()
	for i := range w.secs {
		if d := sec - w.secs[i]; d >= 0 && d < rateWindowSeconds {
			total += w.hits[i]
		}
	}
	w.mu.Unlock()
	return float64(total) / span
}

// Begin marks a request in flight and returns the completion callback:
// call it with the response status once the handler is done. Rejected
// (429) requests count separately from errors — backpressure is the
// system working, not the system failing.
func (e *Endpoint) Begin() func(status int) {
	e.inFlight.Add(1)
	start := time.Now()
	return func(status int) {
		e.inFlight.Add(-1)
		e.requests.Add(1)
		e.window.observe(time.Now())
		e.latency.Observe(time.Since(start))
		switch {
		case status == 429:
			e.rejected.Add(1)
		case status >= 400:
			e.errors.Add(1)
		}
	}
}

// Coalesced counts one request answered by sharing another request's
// in-flight computation.
func (e *Endpoint) Coalesced() { e.coalesced.Add(1) }

// Cached counts one request replayed from the completed-response cache.
func (e *Endpoint) Cached() { e.cached.Add(1) }

// EndpointSnapshot is the JSON shape of one endpoint's counters.
type EndpointSnapshot struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Rejected  uint64 `json:"rejected"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	Cached    uint64 `json:"cached,omitempty"`
	InFlight  int64  `json:"in_flight"`
	// ThroughputRPS is completed requests per second over the trailing
	// 30-second window — the live rate a dashboard should render.
	ThroughputRPS float64 `json:"throughput_rps"`
	// ThroughputRPSLifetime is the old lifetime average (requests per
	// second of server uptime), kept under its own key for consumers
	// that graphed the historical figure.
	ThroughputRPSLifetime float64                   `json:"throughput_rps_lifetime"`
	Latency               metrics.HistogramSnapshot `json:"latency_ms"`
}

// StatsSnapshot is the JSON shape of GET /v1/stats and the serve block
// of /healthz.
type StatsSnapshot struct {
	UptimeSeconds float64                     `json:"uptime_seconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
}

// Snapshot captures every endpoint's counters at one instant.
func (s *Stats) Snapshot() StatsSnapshot {
	uptime := time.Since(s.start).Seconds()
	s.mu.Lock()
	eps := make(map[string]*Endpoint, len(s.eps))
	for name, ep := range s.eps {
		eps[name] = ep
	}
	s.mu.Unlock()

	snap := StatsSnapshot{UptimeSeconds: uptime, Endpoints: make(map[string]EndpointSnapshot, len(eps))}
	for name, ep := range eps {
		reqs := ep.requests.Load()
		es := EndpointSnapshot{
			Requests:  reqs,
			Errors:    ep.errors.Load(),
			Rejected:  ep.rejected.Load(),
			Coalesced: ep.coalesced.Load(),
			Cached:    ep.cached.Load(),
			InFlight:  ep.inFlight.Load(),
			Latency:   ep.latency.Snapshot(),
		}
		es.ThroughputRPS = ep.window.rate(time.Now(), uptime)
		if uptime > 0 {
			es.ThroughputRPSLifetime = float64(reqs) / uptime
		}
		snap.Endpoints[name] = es
	}
	return snap
}
