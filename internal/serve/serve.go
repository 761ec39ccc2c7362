// Package serve is the throughput layer between the HTTP handlers
// (internal/api) and the planning engine (internal/engine): one engine
// per pool, an admission gate, in-flight request coalescing, and a
// completed-answer cache.
//
// One engine: every request computes on the pool's engine.Engine. Its
// worker pool starts goroutines per call, so more engines would split
// only its caches and counters, never the CPU (DESIGN.md decision 8).
//
// Admission: a pool.Gate bounds how many requests execute at once and
// how many may wait; everything beyond that is rejected immediately so
// the caller can answer 429 with Retry-After instead of queueing without
// bound (see DESIGN.md decision 8).
//
// Coalescing: planning is deterministic, so two identical in-flight
// requests must produce identical answers — the pool executes the first
// and hands the same result to the rest (a single-flight group keyed by
// the canonical request).
package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"time"

	"holmes/internal/engine"
	"holmes/internal/pool"
)

// Config fixes a Pool's shape at construction time.
type Config struct {
	// Concurrency bounds the engine's worker pool (0 = CPU count).
	Concurrency int
	// CacheSize bounds the engine's communicator cache (0 = engine
	// default, negative = disabled).
	CacheSize int
	// FullRecompute runs the engine in oracle mode
	// (engine.Config.FullRecompute): full-recompute netsim, exhaustive
	// search, and from-scratch fleet replay.
	FullRecompute bool
	// MaxInFlight bounds concurrently admitted requests
	// (0 = max(8, 2×CPU count)).
	MaxInFlight int
	// MaxQueue bounds requests waiting for admission beyond MaxInFlight
	// (0 = 8×MaxInFlight, negative = no queue: reject the moment every
	// slot is taken). Requests beyond slots+queue are rejected.
	MaxQueue int
	// RetryAfter is the backoff hint attached to rejections (0 = 1s).
	RetryAfter time.Duration
	// ResponseCache bounds the answers the completed-answer cache shared
	// by the deterministic operations holds, typed or as a body digest's
	// bytes (0 = DefaultResponseCacheSize, negative = disabled). See
	// cache.go.
	ResponseCache int
}

// Pool runs requests on one engine with admission control, coalescing,
// and per-endpoint statistics.
type Pool struct {
	cfg    Config
	eng    *engine.Engine
	gate   *pool.Gate
	stats  *Stats
	flight flightGroup
	resp   respCache
}

// New constructs a pool, normalizing zero config fields to defaults.
func New(cfg Config) *Pool {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = max(8, 2*runtime.NumCPU())
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 8 * cfg.MaxInFlight
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	respSize := cfg.ResponseCache
	if respSize == 0 {
		respSize = DefaultResponseCacheSize
	} else if respSize < 0 {
		respSize = 0
	}
	p := &Pool{
		cfg: cfg,
		eng: engine.New(engine.Config{
			Concurrency:   cfg.Concurrency,
			CacheSize:     cfg.CacheSize,
			FullRecompute: cfg.FullRecompute,
		}),
		gate:  pool.NewGate(cfg.MaxInFlight, cfg.MaxQueue),
		stats: newStats(),
	}
	p.resp.init(respSize)
	return p
}

// Engine returns the pool's planning engine.
func (p *Pool) Engine() *engine.Engine { return p.eng }

// ShardFor returns the pool's engine whatever the key: it is Engine
// under the name benchmark/layers calls.
func (p *Pool) ShardFor(string) *engine.Engine { return p.eng }

// Admit asks the gate for an execution slot. ok=false means the caller
// must shed the request (429); otherwise release must be called exactly
// once when the request finishes.
func (p *Pool) Admit(ctx context.Context) (release func(), ok bool) {
	if !p.gate.Enter(ctx) {
		return nil, false
	}
	return p.gate.Leave, true
}

// RetryAfter is the backoff hint for rejected requests.
func (p *Pool) RetryAfter() time.Duration { return p.cfg.RetryAfter }

// Gate exposes admission occupancy (observability). rejected counts
// true saturation; canceled counts clients that aborted while queued.
func (p *Pool) Gate() (inFlight, queued int, rejected, canceled uint64) {
	return p.gate.InFlight(), p.gate.Queued(), p.gate.Rejected(), p.gate.Canceled()
}

// Stats returns the pool's per-endpoint counters.
func (p *Pool) Stats() *Stats { return p.stats }

// CachedResponse returns the completed answer for a canonical request
// key, if the response cache holds one.
func (p *Pool) CachedResponse(key string) (any, bool) { return p.resp.get(key) }

// StoreResponse records a completed successful answer for replay. The
// stored value is shared with future callers and must never be mutated.
func (p *Pool) StoreResponse(key string, val any) { p.resp.put(key, val) }

// CachedAnswer returns the bytes stored for a request-body digest and
// the number of answers they encode (see StoreAnswer). A hit counts one
// response-cache hit per answer and marks their canonical entries used;
// a miss counts nothing, since its request goes on to the canonical
// lookups, which count it.
func (p *Pool) CachedAnswer(digest [sha256.Size]byte) ([]byte, int, bool) {
	return p.resp.getAnswer(digest)
}

// StoreAnswer records the exact bytes answered for a request-body
// digest, which encode the answers under the canonical keys given (one,
// or a batch's, one per item). The entry weighs one answer per key
// against the bound and takes only the room canonical answers leave
// free. Neither the bytes nor the keys may be mutated afterwards.
func (p *Pool) StoreAnswer(digest [sha256.Size]byte, b []byte, keys []string) {
	p.resp.putAnswer(digest, b, keys)
}

// ResponseCacheStats reports response-cache occupancy and counters.
func (p *Pool) ResponseCacheStats() ResponseCacheStats { return p.resp.stats() }

// flightGroup coalesces identical in-flight computations: the first
// caller of a key runs fn, later callers of the same key block on the
// first result and share it. Entries exist only while the computation is
// in flight — completed results are the engine cache's job, not ours.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Coalesce executes fn once per concurrent set of identical keys.
// coalesced reports whether this caller shared another caller's result.
// The shared val must be treated as read-only by every receiver.
func (p *Pool) Coalesce(key string, fn func() (any, error)) (val any, coalesced bool, err error) {
	p.flight.mu.Lock()
	if p.flight.m == nil {
		p.flight.m = make(map[string]*flightCall)
	}
	if c, ok := p.flight.m[key]; ok {
		p.flight.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	p.flight.m[key] = c
	p.flight.mu.Unlock()

	// If fn panics, the deferred cleanup still releases the waiters (they
	// see the placeholder error below) and unregisters the key before the
	// panic propagates to this caller — a shared computation must never
	// leave its followers blocked on a dead channel.
	c.err = errEarlyExit
	defer func() {
		close(c.done)
		p.flight.mu.Lock()
		delete(p.flight.m, key)
		p.flight.mu.Unlock()
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}

// errEarlyExit is what coalesced followers observe when the leader's fn
// panicked instead of returning.
var errEarlyExit = errors.New("serve: coalesced computation exited before completing")
