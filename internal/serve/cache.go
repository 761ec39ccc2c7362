package serve

import (
	"crypto/sha256"
	"sync"
)

// Response cache: planning is deterministic and engines are immutable
// after construction, so a completed answer can be replayed verbatim to
// every later identical request. Coalescing dedupes identical requests
// while one is in flight; this LRU dedupes them after it lands —
// together they make repeat traffic (the common case for a planning
// service: many users asking about the same clusters and models) cost one
// computation.
//
// It holds two kinds of entry under one bound (DESIGN.md decision 8). A
// canonical entry, keyed by the API's (op, config) JSON, holds the typed
// response struct the API layer marshals; batch items and snapshots reuse
// it, and it is shared and must be treated as read-only, the same
// contract the engine's world cache already imposes. A digest entry,
// keyed by SHA-256 over an endpoint name and a request body, holds the
// exact bytes that endpoint answered for that body, so a byte-identical
// repeat is answered before it is decoded. The bound counts answers: one
// per canonical entry, and one per answer a digest's bytes encode (a
// batch's: one per item). Digest entries are evicted first and never
// evict a canonical entry: losing one costs a decode and an encode,
// losing a canonical answer costs a computation.

// DefaultResponseCacheSize bounds the response cache when
// Config.ResponseCache is zero.
const DefaultResponseCacheSize = 4096

// node is one entry of a recency list, holding n answers.
type node[K comparable, V any] struct {
	key        K
	val        V
	n          int
	prev, next *node[K, V]
}

// lru is one kind of entry: a map, a recency list (most recent first),
// and the answers its entries hold.
type lru[K comparable, V any] struct {
	m          map[K]*node[K, V]
	head, tail *node[K, V]
	n          int
}

func (l *lru[K, V]) add(k K, v V, n int) {
	e := &node[K, V]{key: k, val: v, n: n}
	l.m[k] = e
	l.pushFront(e)
}

// touch marks e most recently used.
func (l *lru[K, V]) touch(e *node[K, V]) {
	if l.head != e {
		l.unlink(e)
		l.pushFront(e)
	}
}

// evict drops the least recently used entry.
func (l *lru[K, V]) evict() {
	e := l.tail
	l.unlink(e)
	delete(l.m, e.key)
}

func (l *lru[K, V]) pushFront(e *node[K, V]) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n += e.n
}

func (l *lru[K, V]) unlink(e *node[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n -= e.n
}

// storedAnswer is a digest entry's value: the bytes answered, and the
// canonical keys of the answers they encode.
type storedAnswer struct {
	b    []byte
	keys []string
}

// respCache is the bounded response cache: canonical and digest entries
// under one bound on the answers they hold.
type respCache struct {
	mu      sync.Mutex
	cap     int
	canon   lru[string, any]
	digests lru[[sha256.Size]byte, storedAnswer]

	hits, misses, evictions uint64
}

func (c *respCache) init(capacity int) {
	c.cap = capacity
	c.canon.m = make(map[string]*node[string, any], min(capacity, 1024))
	c.digests.m = make(map[[sha256.Size]byte]*node[[sha256.Size]byte, storedAnswer])
}

func (c *respCache) get(key string) (any, bool) {
	if c.cap == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.canon.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.canon.touch(e)
	return e.val, true
}

// getAnswer looks a body digest up. A hit counts one hit per answer its
// bytes encode, as the canonical lookups it saves would have, and marks
// those answers' canonical entries used too, so an answer served from
// its digest ages, is evicted and is snapshotted as recently as it was
// used. A miss counts nothing: its request goes on to the canonical
// lookups, which count it.
func (c *respCache) getAnswer(d [sha256.Size]byte) ([]byte, int, bool) {
	if c.cap == 0 {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.digests.m[d]
	if !ok {
		return nil, 0, false
	}
	c.hits += uint64(e.n)
	c.digests.touch(e)
	for _, k := range e.val.keys {
		if ce, ok := c.canon.m[k]; ok {
			c.canon.touch(ce)
		}
	}
	return e.val.b, e.n, true
}

func (c *respCache) put(key string, val any) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.canon.m[key]; ok {
		// A concurrent miss computed the same answer; keep the first.
		c.canon.touch(e)
		return
	}
	for c.canon.n+c.digests.n >= c.cap {
		if c.digests.tail != nil {
			c.digests.evict()
		} else {
			c.canon.evict()
		}
		c.evictions++
	}
	c.canon.add(key, val, 1)
}

// putAnswer stores the bytes answered for a body digest, weighing one
// answer per canonical key. It takes only the room canonical entries
// leave free, evicting older digests as needed, and stores nothing when
// that is not enough.
func (c *respCache) putAnswer(d [sha256.Size]byte, b []byte, keys []string) {
	n := max(len(keys), 1)
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.digests.m[d]; ok {
		c.digests.touch(e)
		return
	}
	if c.canon.n+n > c.cap {
		return
	}
	for c.canon.n+c.digests.n+n > c.cap {
		c.digests.evict()
		c.evictions++
	}
	c.digests.add(d, storedAnswer{b: b, keys: keys}, n)
}

// ResponseCacheStats is a point-in-time snapshot of the response cache.
// Size counts the answers held, the figure Cap bounds: one per canonical
// entry and one per answer a digest entry's bytes encode.
type ResponseCacheStats struct {
	Size      int    `json:"size"`
	Cap       int    `json:"cap"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func (c *respCache) stats() ResponseCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResponseCacheStats{
		Size: c.canon.n + c.digests.n, Cap: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
