// Package engine owns the process-wide resources the Holmes stack used to
// keep in package-level mutable state: the communicator (assignment +
// world) cache, the slice-plan cache, the bounded worker pool, and the
// oracle switch.
//
// An Engine is immutable after construction — its configuration cannot
// change, and its caches are internally synchronized — so any number of
// goroutines (concurrent planner searches, experiment grids, HTTP request
// handlers) can share one Engine, and independent tenants can hold
// independent Engines with different settings without interfering. That
// property is what makes the library safe to put behind a server
// (cmd/holmes-serve): previously two callers flipping
// experiments.FullRecompute or experiments.Concurrency raced each other
// through package globals.
package engine

import (
	"runtime"
	"sync"

	"holmes/internal/comm"
	"holmes/internal/parallel"
	"holmes/internal/pool"
	"holmes/internal/topology"
)

// Config fixes an Engine's behaviour at construction time.
type Config struct {
	// Concurrency bounds the worker pool used for fan-out (experiment
	// cells, plan-search candidates). 0 means runtime.NumCPU().
	Concurrency int
	// CacheSize bounds the communicator cache (entries). 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// PlanCacheSize bounds the shared slice-plan cache (entries). 0 means
	// DefaultPlanCacheSize; negative disables caching.
	PlanCacheSize int
	// FullRecompute selects every reference arm at once: simulations
	// rebalance the whole netsim fabric from scratch, searches simulate
	// every candidate (no pruning, no winner memo), and fleet managers
	// replay every schedule from virtual time zero. It is the oracle the
	// differential tests compare each fast path against, and the mode of
	// `holmes-bench -mode=baseline` and `holmes-serve -full-recompute`.
	FullRecompute bool
}

// DefaultCacheSize bounds the communicator cache when Config.CacheSize is
// zero. The working set of any realistic search is far smaller; the bound
// exists so a long-lived server cannot grow without limit.
const DefaultCacheSize = 512

// DefaultPlanCacheSize bounds the shared slice-plan cache when
// Config.PlanCacheSize is zero. A fleet's distinct (slice fingerprint,
// model, framework) triples are a small working set, but a long-lived
// server accumulating degrade factors could mint entries without limit.
const DefaultPlanCacheSize = 1024

// Engine carries the shared, concurrency-safe execution resources.
type Engine struct {
	concurrency   int
	fullRecompute bool
	cache         lru[worldKey, worldVal]
	plans         lru[any, any]
	search        searchCounters
}

// New constructs an Engine, normalizing zero config fields to defaults.
func New(cfg Config) *Engine {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = runtime.NumCPU()
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size < 0 {
		size = 0 // caching disabled
	}
	planSize := cfg.PlanCacheSize
	if planSize == 0 {
		planSize = DefaultPlanCacheSize
	}
	if planSize < 0 {
		planSize = 0
	}
	e := &Engine{
		concurrency:   cfg.Concurrency,
		fullRecompute: cfg.FullRecompute,
	}
	e.cache.init(size)
	e.plans.init(planSize)
	return e
}

// defaultEngine backs every entry point handed a nil engine
// (core.NewPlanner, experiments.NewSuite, fleet.NewScheduler, holmes.Plan,
// ...). It is constructed once and never mutated, so sharing it is safe.
var defaultEngine = sync.OnceValue(func() *Engine { return New(Config{}) })

// Default returns the shared process-wide Engine with default settings.
func Default() *Engine { return defaultEngine() }

// Concurrency reports the worker-pool bound.
func (e *Engine) Concurrency() int { return e.concurrency }

// FullRecompute reports whether the engine runs every reference arm
// (see Config.FullRecompute).
func (e *Engine) FullRecompute() bool { return e.fullRecompute }

// Go executes fn(i) for every i in [0, n) on the engine's bounded worker
// pool and returns when all calls finish. Panics in fn propagate to the
// caller (see pool.Run).
func (e *Engine) Go(n int, fn func(i int)) { pool.Run(n, e.concurrency, fn) }

// worldKey identifies a cached assignment+world: the structural topology
// fingerprint, the fixed degrees, and the NIC-selection policy (the only
// inputs communicator construction depends on).
type worldKey struct {
	fp   string
	t, p int
	sel  comm.Selection
}

// worldVal is one cached assignment+world pair.
type worldVal struct {
	assign *parallel.Assignment
	world  *comm.World
}

// lruEntry is one cache node; entries form a doubly-linked recency list
// with head = most recently used.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// lru is a bounded least-recently-used cache. Cached values must be
// immutable after insertion (worlds and plans are read-only during
// simulation), so handing the same pointers to concurrent callers is
// safe. Eviction is strictly least-recently-used — a long search that
// keeps touching a hot working set never loses it, unlike the overflow
// behaviour the per-Scheduler plan memo used to have (clear the whole
// map at capacity).
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	cap        int
	m          map[K]*lruEntry[K, V]
	head, tail *lruEntry[K, V]

	hits, misses, evictions uint64
}

func (c *lru[K, V]) init(capacity int) {
	c.cap = capacity
	c.m = make(map[K]*lruEntry[K, V], min(capacity, 64))
}

// get returns the entry for key, promoting it to most-recently-used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.promote(e)
	return e.val, true
}

// put inserts (or refreshes) key, evicting the least-recently-used entry
// when the cache is full.
func (c *lru[K, V]) put(key K, val V) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		// A concurrent miss built the same value twice; keep the first,
		// the values are equivalent.
		c.promote(e)
		return
	}
	if len(c.m) >= c.cap {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
		c.evictions++
	}
	e := &lruEntry[K, V]{key: key, val: val}
	c.m[key] = e
	c.pushFront(e)
}

func (c *lru[K, V]) promote(e *lruEntry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *lru[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// stats snapshots the cache counters.
func (c *lru[K, V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: len(c.m), Cap: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// World returns the parallel assignment and communicator world for the
// degrees and NIC-selection policy on the topology, built on first use and
// served from the engine's LRU cache afterwards. The returned structures
// are shared and must be treated as read-only.
func (e *Engine) World(topo *topology.Topology, deg parallel.Degrees, sel comm.Selection) (*parallel.Assignment, *comm.World, error) {
	key := worldKey{fp: topo.Fingerprint(), t: deg.T, p: deg.P, sel: sel}
	if v, ok := e.cache.get(key); ok {
		return v.assign, v.world, nil
	}
	assign, err := parallel.New(topo.NumDevices(), topo.GPUsPerNode, deg)
	if err != nil {
		return nil, nil, err
	}
	world, err := comm.BuildWorld(topo, assign, sel)
	if err != nil {
		return nil, nil, err
	}
	e.cache.put(key, worldVal{assign: assign, world: world})
	return assign, world, nil
}

// Plan returns the cached slice-plan value for an opaque comparable key,
// if present. The plan cache is the engine-wide successor of the fleet
// scheduler's per-Scheduler memo: identical carve fingerprints recur
// across jobs, across schedulers, and across /v1/jobs fleets routed to
// the same shard, so the memo lives next to the communicator cache where
// all of them can share it. Values are opaque to the engine; callers key
// with their own comparable types (a package-private key type cannot
// collide with another package's) and must treat stored values as
// immutable.
func (e *Engine) Plan(key any) (any, bool) { return e.plans.get(key) }

// StorePlan records a computed slice-plan value for the key. When two
// concurrent misses race, the first stored value wins; deterministic
// planning guarantees both are equivalent.
func (e *Engine) StorePlan(key any, val any) { e.plans.put(key, val) }

// CacheStats is a point-in-time snapshot of one engine cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Cap       int    `json:"cap"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Add accumulates another snapshot into s — the serving layer aggregates
// per-shard caches into one /healthz figure this way.
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{
		Size: s.Size + o.Size, Cap: s.Cap + o.Cap,
		Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Evictions: s.Evictions + o.Evictions,
	}
}

// CacheStats reports communicator-cache occupancy and hit/miss/eviction
// counters (observability for /healthz and the cache tests).
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// PlanCacheStats reports slice-plan-cache occupancy and counters.
func (e *Engine) PlanCacheStats() CacheStats { return e.plans.stats() }
