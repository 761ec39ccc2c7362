package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holmes/internal/engine"
)

func TestCoalesceSharesOneExecution(t *testing.T) {
	p := New(Config{})
	const callers = 16
	var executions atomic.Int32
	var coalescedCount atomic.Int32
	release := make(chan struct{})
	vals := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, coalesced, err := p.Coalesce("k", func() (any, error) {
				executions.Add(1)
				<-release // hold every other caller in flight
				return "answer", nil
			})
			if err != nil {
				t.Error(err)
			}
			if coalesced {
				coalescedCount.Add(1)
			}
			vals[i] = v
		}()
	}
	// Wait until the leader is inside fn, then let followers pile up.
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if executions.Load() != 1 {
		t.Fatalf("fn executed %d times, want 1", executions.Load())
	}
	if coalescedCount.Load() != callers-1 {
		t.Fatalf("%d callers coalesced, want %d", coalescedCount.Load(), callers-1)
	}
	for i, v := range vals {
		if v != "answer" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	// The entry is gone once the flight lands: a new call re-executes.
	_, coalesced, _ := p.Coalesce("k", func() (any, error) { return "again", nil })
	if coalesced {
		t.Fatal("completed flight must not coalesce later callers")
	}
}

func TestCoalesceDistinctKeysIndependent(t *testing.T) {
	p := New(Config{})
	var n atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = p.Coalesce(fmt.Sprintf("k%d", i), func() (any, error) {
				n.Add(1)
				return i, nil
			})
		}()
	}
	wg.Wait()
	if n.Load() != 8 {
		t.Fatalf("distinct keys executed %d times, want 8", n.Load())
	}
}

func TestCoalesceErrorShared(t *testing.T) {
	p := New(Config{})
	boom := errors.New("boom")
	_, _, err := p.Coalesce("e", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
}

func TestCoalescePanicReleasesFollowers(t *testing.T) {
	p := New(Config{})
	entered := make(chan struct{})
	finish := make(chan struct{})
	followerDone := make(chan error, 1)
	go func() {
		defer func() { recover() }() // the leader's panic stays its own
		_, _, _ = p.Coalesce("p", func() (any, error) {
			close(entered)
			<-finish
			panic("leader died")
		})
	}()
	<-entered
	go func() {
		_, _, err := p.Coalesce("p", func() (any, error) { return "unused", nil })
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(finish)
	select {
	case err := <-followerDone:
		if err == nil {
			t.Fatal("follower of a panicked leader must observe an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower deadlocked after leader panic")
	}
	// The key must be free again.
	v, coalesced, err := p.Coalesce("p", func() (any, error) { return "fresh", nil })
	if err != nil || coalesced || v != "fresh" {
		t.Fatalf("key not released: v=%v coalesced=%v err=%v", v, coalesced, err)
	}
}

func TestAdmitBackpressure(t *testing.T) {
	p := New(Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	ctx := context.Background()
	release, ok := p.Admit(ctx)
	if !ok {
		t.Fatal("first admit")
	}
	if _, ok := p.Admit(ctx); ok {
		t.Fatal("saturated pool admitted a second request")
	}
	inFlight, queued, rejected, canceled := p.Gate()
	if inFlight != 1 || queued != 0 || rejected != 1 || canceled != 0 {
		t.Fatalf("gate (%d,%d,%d,%d), want (1,0,1,0)", inFlight, queued, rejected, canceled)
	}
	if p.RetryAfter() != 2*time.Second {
		t.Fatalf("retry-after %v", p.RetryAfter())
	}
	release()
	release2, ok := p.Admit(ctx)
	if !ok {
		t.Fatal("released slot must re-admit")
	}
	release2()
}

func TestStatsEndpointCounters(t *testing.T) {
	p := New(Config{})
	ep := p.Stats().Endpoint("plan")
	if ep != p.Stats().Endpoint("plan") {
		t.Fatal("endpoint registration must be idempotent")
	}
	done := ep.Begin()
	if got := p.Stats().Snapshot().Endpoints["plan"].InFlight; got != 1 {
		t.Fatalf("in-flight %d, want 1", got)
	}
	done(200)
	ep.Begin()(422)
	ep.Begin()(429)
	ep.Coalesced()
	s := p.Stats().Snapshot()
	es := s.Endpoints["plan"]
	if es.Requests != 3 || es.Errors != 1 || es.Rejected != 1 || es.Coalesced != 1 || es.InFlight != 0 {
		t.Fatalf("endpoint snapshot: %+v", es)
	}
	if es.Latency.Count != 3 {
		t.Fatalf("latency samples %d, want 3", es.Latency.Count)
	}
	if es.ThroughputRPS <= 0 || s.UptimeSeconds <= 0 {
		t.Fatalf("throughput/uptime not populated: %+v", es)
	}
}

func TestResponseCacheLRU(t *testing.T) {
	p := New(Config{ResponseCache: 2})
	if _, ok := p.CachedResponse("a"); ok {
		t.Fatal("empty cache answered")
	}
	p.StoreResponse("a", 1)
	p.StoreResponse("b", 2)
	if v, ok := p.CachedResponse("a"); !ok || v != 1 {
		t.Fatalf("a: %v %v", v, ok)
	}
	// a was just touched; storing c evicts b (the LRU), not a.
	p.StoreResponse("c", 3)
	if _, ok := p.CachedResponse("b"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if v, ok := p.CachedResponse("a"); !ok || v != 1 {
		t.Fatalf("hot entry evicted: %v %v", v, ok)
	}
	if v, ok := p.CachedResponse("c"); !ok || v != 3 {
		t.Fatalf("c: %v %v", v, ok)
	}
	st := p.ResponseCacheStats()
	if st.Size != 2 || st.Cap != 2 || st.Evictions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hit/miss counters: %+v", st)
	}
	// Re-storing an existing key refreshes recency without growing.
	p.StoreResponse("a", 99)
	if v, _ := p.CachedResponse("a"); v != 1 {
		t.Fatalf("first store must win (determinism): %v", v)
	}
}

// A digest entry weighs the answers its bytes encode against the one
// bound and counts that many hits; a hit marks those answers' canonical
// entries used; and digests are evicted before any canonical entry,
// which they never evict.
func TestResponseCacheDigestKeys(t *testing.T) {
	p := New(Config{ResponseCache: 4})
	x, y, z := sha256.Sum256([]byte("x")), sha256.Sum256([]byte("y")), sha256.Sum256([]byte("z"))
	if _, _, ok := p.CachedAnswer(x); ok {
		t.Fatal("empty cache answered a digest")
	}
	if st := p.ResponseCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a digest miss was counted: %+v", st)
	}
	p.StoreResponse("a", 1)
	p.StoreResponse("b", 2)
	p.StoreAnswer(x, []byte("answer a"), []string{"a"})
	if es := p.ResponseEntries(); es[0].Key != "a" {
		t.Fatalf("before the hit a is least recent: %+v", es)
	}
	if b, n, ok := p.CachedAnswer(x); !ok || n != 1 || string(b) != "answer a" {
		t.Fatalf("x: %q %d %v", b, n, ok)
	}
	if es := p.ResponseEntries(); es[0].Key != "b" {
		t.Fatalf("a digest hit left a least recent: %+v", es)
	}
	// Two answers do not fit beside a, b and x: x goes, not a or b.
	p.StoreAnswer(y, []byte("answers a, b"), []string{"a", "b"})
	if _, _, ok := p.CachedAnswer(x); ok {
		t.Fatal("the older digest survived")
	}
	p.StoreAnswer(y, []byte("other"), []string{"a", "b"})
	if b, n, _ := p.CachedAnswer(y); string(b) != "answers a, b" || n != 2 {
		t.Fatalf("first store must win: %q %d", b, n)
	}
	// A canonical answer evicts digests first ...
	p.StoreResponse("c", 3)
	if _, _, ok := p.CachedAnswer(y); ok {
		t.Fatal("a digest survived a canonical insert that needed its room")
	}
	// ... and a digest finds no room among canonical answers.
	p.StoreResponse("d", 4)
	p.StoreAnswer(z, []byte("answer d"), []string{"d"})
	if _, _, ok := p.CachedAnswer(z); ok {
		t.Fatal("a digest evicted a canonical answer")
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, ok := p.CachedResponse(k); !ok {
			t.Fatalf("canonical answer %s evicted", k)
		}
	}
	st := p.ResponseCacheStats()
	if st.Size != 4 || st.Evictions != 2 || st.Hits != 1+2+4 || st.Misses != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// Digests of large batches — every reordering of one 256-item batch is a
// new body — hold no more bytes than the answers their weight counts.
func TestResponseCacheDigestBytesBounded(t *testing.T) {
	const items, answerBytes = 256, 64
	p := New(Config{})
	keys := make([]string, items)
	for i := range keys {
		keys[i] = fmt.Sprint("item ", i)
		p.StoreResponse(keys[i], i)
	}
	for r := 0; r < 64; r++ {
		p.StoreAnswer(sha256.Sum256([]byte{byte(r)}), make([]byte, items*answerBytes), keys)
		if st := p.ResponseCacheStats(); st.Size > st.Cap {
			t.Fatalf("after %d batches the cache holds %d answers over its bound of %d", r+1, st.Size, st.Cap)
		}
	}
	stored := 0
	for _, e := range p.resp.digests.m {
		stored += len(e.val.b)
	}
	if limit := (DefaultResponseCacheSize - items) * answerBytes; stored > limit {
		t.Fatalf("digests hold %d bytes, over the %d the bound leaves them", stored, limit)
	}
	if es := p.ResponseEntries(); len(es) != items {
		t.Fatalf("%d canonical answers left of %d", len(es), items)
	}
}

func TestResponseCacheDisabled(t *testing.T) {
	p := New(Config{ResponseCache: -1})
	p.StoreResponse("a", 1)
	if _, ok := p.CachedResponse("a"); ok {
		t.Fatal("disabled cache stored a value")
	}
	p.StoreAnswer([32]byte{}, []byte("x"), []string{"a"})
	if _, _, ok := p.CachedAnswer([32]byte{}); ok {
		t.Fatal("disabled cache stored bytes")
	}
	if st := p.ResponseCacheStats(); st.Cap != 0 || st.Size != 0 {
		t.Fatalf("disabled cache stats: %+v", st)
	}
}

func TestConfigDefaults(t *testing.T) {
	p := New(Config{})
	if eng := p.Engine(); eng.Concurrency() != runtime.NumCPU() || eng.CacheStats().Cap != engine.DefaultCacheSize || eng.FullRecompute() {
		t.Fatalf("default engine: concurrency %d, cache %+v, full recompute %v", eng.Concurrency(), eng.CacheStats(), eng.FullRecompute())
	}
	if p.ShardFor("any key") != p.Engine() {
		t.Fatal("ShardFor must return the pool's engine")
	}
	if p.RetryAfter() != time.Second {
		t.Fatalf("default retry-after %v", p.RetryAfter())
	}
	if p.cfg.MaxInFlight < 8 || p.cfg.MaxQueue < 64 {
		t.Fatalf("default admission too tight: %+v", p.cfg)
	}
}

func TestConfigReachesEngine(t *testing.T) {
	eng := New(Config{Concurrency: 3, CacheSize: -1, FullRecompute: true}).Engine()
	if eng.Concurrency() != 3 || eng.CacheStats().Cap != 0 || !eng.FullRecompute() {
		t.Fatalf("engine: concurrency %d, cache %+v, full recompute %v", eng.Concurrency(), eng.CacheStats(), eng.FullRecompute())
	}
}
