package engine

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// Plan-cache snapshotting: the plan cache holds opaque values, some of
// which are serializable facts (the joint search's winning degrees) and
// some of which are live object graphs (the fleet scheduler's planner
// pointers). A PlanCodec is how a key-owning package opts its entries
// into persistence: it recognizes its own key/value types, renders them
// as JSON, and reconstructs them on load. Entries no codec claims are
// simply not snapshotted — a snapshot holds deterministic, re-keyable
// facts only (DESIGN.md decision 11).

// PlanSnapshotEntry is one serialized plan-cache entry.
type PlanSnapshotEntry struct {
	// Kind names the codec that owns the entry.
	Kind string          `json:"kind"`
	Key  json.RawMessage `json:"key"`
	Val  json.RawMessage `json:"val"`
}

// PlanCodec serializes one kind of plan-cache entry.
type PlanCodec interface {
	// Kind is the entry tag this codec owns.
	Kind() string
	// Encode renders an entry, or reports false when the key is not one
	// of this codec's.
	Encode(key, val any) (PlanSnapshotEntry, bool)
	// Decode reconstructs the in-memory key and value, plus the routing
	// key ("" when the entry has no shard affinity) a sharded pool should
	// hash to place the entry on the shard that will look it up.
	Decode(e PlanSnapshotEntry) (key, val any, route string, err error)
}

// PlanEntry is one live plan-cache pair.
type PlanEntry struct {
	Key, Val any
}

// PlanEntries returns the plan cache's pairs ordered least- to
// most-recently used, so replaying them through StorePlan in order
// reproduces the recency order under the cache's normal bounds.
func (e *Engine) PlanEntries() []PlanEntry {
	pairs := e.plans.entries()
	out := make([]PlanEntry, len(pairs))
	for i, p := range pairs {
		out[i] = PlanEntry{Key: p.key, Val: p.val}
	}
	return out
}

// SnapshotPlans serializes every plan-cache entry some codec claims,
// least-recently-used first.
func (e *Engine) SnapshotPlans(codecs ...PlanCodec) []PlanSnapshotEntry {
	var out []PlanSnapshotEntry
	for _, pe := range e.PlanEntries() {
		for _, c := range codecs {
			if entry, ok := c.Encode(pe.Key, pe.Val); ok {
				out = append(out, entry)
				break
			}
		}
	}
	return out
}

// DecodedPlan is one snapshot entry reconstructed by its codec.
type DecodedPlan struct {
	Key, Val any
	// Route is the shard-affinity key (normally a topology fingerprint).
	Route string
}

// DecodePlans reconstructs every entry, or fails without partial results:
// a snapshot that decodes halfway must not half-poison a cache, so
// callers store entries only after the whole file decoded.
func DecodePlans(entries []PlanSnapshotEntry, codecs ...PlanCodec) ([]DecodedPlan, error) {
	byKind := make(map[string]PlanCodec, len(codecs))
	for _, c := range codecs {
		byKind[c.Kind()] = c
	}
	out := make([]DecodedPlan, 0, len(entries))
	for i, e := range entries {
		c, ok := byKind[e.Kind]
		if !ok {
			return nil, fmt.Errorf("engine: snapshot entry %d has unknown kind %q", i, e.Kind)
		}
		key, val, route, err := c.Decode(e)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot entry %d (%s): %w", i, e.Kind, err)
		}
		out = append(out, DecodedPlan{Key: key, Val: val, Route: route})
	}
	return out, nil
}

// entries snapshots the cache pairs from tail (least recently used) to
// head (most recently used).
func (c *lru[K, V]) entries() []lruPair[K, V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruPair[K, V], 0, len(c.m))
	for e := c.tail; e != nil; e = e.prev {
		out = append(out, lruPair[K, V]{key: e.key, val: e.val})
	}
	return out
}

type lruPair[K comparable, V any] struct {
	key K
	val V
}

// SearchStats counts joint-search work over the engine's lifetime:
// how many searches ran, how many candidate cells were event-simulated
// to completion, how many were pruned by the admissible lower bound
// without simulation, how many started simulating but aborted the moment
// the virtual clock passed the incumbent (branch-and-bound), and how
// many whole searches were answered from the winner memo.
type SearchStats struct {
	Searches  uint64 `json:"searches"`
	Simulated uint64 `json:"simulated"`
	Pruned    uint64 `json:"pruned"`
	Aborted   uint64 `json:"aborted"`
	MemoHits  uint64 `json:"memo_hits"`
}

// Add accumulates another snapshot into s (per-shard aggregation).
func (s SearchStats) Add(o SearchStats) SearchStats {
	return SearchStats{
		Searches:  s.Searches + o.Searches,
		Simulated: s.Simulated + o.Simulated,
		Pruned:    s.Pruned + o.Pruned,
		Aborted:   s.Aborted + o.Aborted,
		MemoHits:  s.MemoHits + o.MemoHits,
	}
}

// searchCounters is the engine-side atomic storage behind SearchStats.
type searchCounters struct {
	searches  atomic.Uint64
	simulated atomic.Uint64
	pruned    atomic.Uint64
	aborted   atomic.Uint64
	memoHits  atomic.Uint64
}

// NoteSearch records one finished search: how many cells it simulated to
// completion, how many the bound pruned outright, how many aborted
// mid-simulation, and whether the winner memo answered it.
func (e *Engine) NoteSearch(simulated, pruned, aborted int, memoHit bool) {
	e.search.searches.Add(1)
	e.search.simulated.Add(uint64(simulated))
	e.search.pruned.Add(uint64(pruned))
	e.search.aborted.Add(uint64(aborted))
	if memoHit {
		e.search.memoHits.Add(1)
	}
}

// SearchStats snapshots the search counters.
func (e *Engine) SearchStats() SearchStats {
	return SearchStats{
		Searches:  e.search.searches.Load(),
		Simulated: e.search.simulated.Load(),
		Pruned:    e.search.pruned.Load(),
		Aborted:   e.search.aborted.Load(),
		MemoHits:  e.search.memoHits.Load(),
	}
}
