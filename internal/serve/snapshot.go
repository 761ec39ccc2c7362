package serve

// Pool-level snapshot plumbing: the serving layer hands its response
// cache out for persistence. The API layer restores it (see
// internal/api/snapshot.go) by re-keying each entry, since it owns the
// key format.

// ResponseEntry is one live response-cache pair.
type ResponseEntry struct {
	Key string
	Val any
}

// ResponseEntries returns the response cache's canonical pairs ordered
// least- to most-recently used, so replaying them through StoreResponse
// in order reproduces the recency order under the cache's normal bounds.
// Body-digest entries are left out: a restarted server re-derives them
// from the canonical entries on the first request of each body.
func (p *Pool) ResponseEntries() []ResponseEntry {
	c := &p.resp
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ResponseEntry, 0, len(c.canon.m))
	for e := c.canon.tail; e != nil; e = e.prev {
		out = append(out, ResponseEntry{Key: e.key, Val: e.val})
	}
	return out
}
