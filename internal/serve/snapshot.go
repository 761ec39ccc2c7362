package serve

import "holmes/internal/engine"

// Pool-level snapshot plumbing: the serving layer collects cache entries
// across shards for persistence. The API layer restores them (see
// internal/api/snapshot.go): it re-keys response-cache entries, whose key
// format it owns, and stores each plan-cache entry on the shard its
// routing key (the topology fingerprint) hashes to — the shard that will
// actually look it up.

// ResponseEntry is one live response-cache pair.
type ResponseEntry struct {
	Key string
	Val any
}

// ResponseEntries returns the response cache's pairs ordered least- to
// most-recently used, so replaying them through StoreResponse in order
// reproduces the recency order under the cache's normal bounds.
func (p *Pool) ResponseEntries() []ResponseEntry {
	c := &p.resp
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ResponseEntry, 0, len(c.m))
	for e := c.tail; e != nil; e = e.prev {
		out = append(out, ResponseEntry{Key: e.key, Val: e.val})
	}
	return out
}

// SnapshotPlans serializes every snapshot-able plan-cache entry across
// all shards (see engine.Engine.SnapshotPlans).
func (p *Pool) SnapshotPlans(codecs ...engine.PlanCodec) []engine.PlanSnapshotEntry {
	var out []engine.PlanSnapshotEntry
	for _, s := range p.shards {
		out = append(out, s.SnapshotPlans(codecs...)...)
	}
	return out
}

// SearchStats aggregates the joint-search counters across shards.
func (p *Pool) SearchStats() engine.SearchStats {
	var agg engine.SearchStats
	for _, s := range p.shards {
		agg = agg.Add(s.SearchStats())
	}
	return agg
}
