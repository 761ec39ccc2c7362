package engine

import "sync/atomic"

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

// SearchStats counts joint-search work over the engine's lifetime: how
// many searches ran, and how their candidate cells fared. A cell is
// pruned when the admissible lower bound proves it cannot beat the
// incumbent, so it is never simulated. A simulated cell runs to its
// result or its error. An aborted cell provably lost: against D, the
// smaller of its wave's incumbent time and its wave-mates' completed
// iteration times, its abort projection exceeded D at some op completion
// or it completed after D (the simulation stops early whenever it can
// prove either). The tests read the cell's own trajectory and its
// wave-mates' completed times, never when the threads ran, so the
// counters are deterministic at a fixed wave width. Events sums the
// events fired by every simulation a search ran — completed, failed or
// aborted, the memo's replay included; a simulation that folds lockstep
// twins fires, and counts, one twin's events for its class (see
// trainer.Outcome). The number of events an aborted cell fires before
// it stops may vary with the threads' timing at wave widths above 1. MemoHits counts whole searches the winner memo
// answered.
type SearchStats struct {
	Searches  uint64 `json:"searches"`
	Simulated uint64 `json:"simulated"`
	Pruned    uint64 `json:"pruned"`
	Aborted   uint64 `json:"aborted"`
	Events    uint64 `json:"events"`
	MemoHits  uint64 `json:"memo_hits"`
}

// searchCounters is the engine-side atomic storage behind SearchStats.
type searchCounters struct {
	searches  atomic.Uint64
	simulated atomic.Uint64
	pruned    atomic.Uint64
	aborted   atomic.Uint64
	events    atomic.Uint64
	memoHits  atomic.Uint64
}

// NoteSearch records one finished search: the counts of its cells, the
// events its simulations fired, and MemoHits 1 when the winner memo
// answered it. Its Searches field is ignored; the engine counts one.
func (e *Engine) NoteSearch(s SearchStats) {
	e.search.searches.Add(1)
	e.search.simulated.Add(s.Simulated)
	e.search.pruned.Add(s.Pruned)
	e.search.aborted.Add(s.Aborted)
	e.search.events.Add(s.Events)
	e.search.memoHits.Add(s.MemoHits)
}

// SearchStats snapshots the search counters.
func (e *Engine) SearchStats() SearchStats {
	return SearchStats{
		Searches:  e.search.searches.Load(),
		Simulated: e.search.simulated.Load(),
		Pruned:    e.search.pruned.Load(),
		Aborted:   e.search.aborted.Load(),
		Events:    e.search.events.Load(),
		MemoHits:  e.search.memoHits.Load(),
	}
}
