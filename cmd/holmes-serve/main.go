// Command holmes-serve exposes the Holmes scheduler as a JSON/HTTP
// daemon built for throughput: requests are admitted through a bounded
// queue (saturation answers 429 + Retry-After), routed over a pool of
// independent engine shards by topology fingerprint (cache hits stay
// shard-local), and identical in-flight plan/search requests are
// coalesced into one computation.
//
// The daemon shuts down gracefully: SIGINT/SIGTERM switch it to drain
// mode (new admission-gated work answers 429, observability routes keep
// answering), in-flight requests finish within -drain-timeout, and —
// when -cache-snapshot is set — the deterministic caches (completed
// responses, search-winner memo) are written to disk so the next boot
// answers the same corpus hot. The same file is loaded at startup and
// rewritten every -snapshot-interval.
//
// /v1/jobs runs every fleet as an always-on wall-clock operator:
// submits are stamped with real time, finished work retires on its own,
// and -fleet-policy / a per-request "policy" selects the scheduling
// policy. Durability is where the journal goes: with -journal-dir each
// fleet writes an fsync'd journal there, and a restarted daemon
// recovers every fleet from its journal and resumes scheduling
// bit-identically to a process that never died; without it the fleets
// live in memory.
//
// The daemon is observable live: GET / serves an embedded dashboard
// (go:embed, zero build step — fleet timeline, topology health,
// endpoint latency) and GET /v1/events streams fleet transitions as
// Server-Sent Events. Both ride outside admission, so they keep
// answering while the server is saturated. -dashboard=false unmounts
// the page (the stream stays).
//
// Usage:
//
//	holmes-serve -addr :8080
//	holmes-serve -addr :8080 -shards 4 -workers 4 -cache 1024 -max-inflight 64 -max-queue 512
//	holmes-serve -addr :8080 -cache-snapshot /var/lib/holmes/cache.json -snapshot-interval 5m
//	holmes-serve -addr :8080 -journal-dir /var/lib/holmes/fleet -fleet-policy priority
//	holmes-serve -addr :8080 -pprof   # mounts /debug/pprof/
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/v1/stats
//	curl -sN localhost:8080/v1/events   # SSE stream; open / in a browser for the dashboard
//	curl -s localhost:8080/v1/plan \
//	  -d '{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}'
//	curl -s localhost:8080/v1/search -d '{"env":"Hybrid","nodes":8,"model":{"group":3}}'
//	curl -s localhost:8080/v1/plan/batch \
//	  -d '{"items":[{"op":"plan","config":{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}},
//	               {"op":"search","config":{"env":"RoCE","nodes":4,"model":{"group":1}}}]}'
//	curl -s -X POST localhost:8080/v1/experiments/table1
//
// Request bodies use the same JSON schema as cmd/holmes-sim -config
// (clusters or the env/nodes shorthand, model group or explicit
// architecture, framework, component toggles).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"holmes/internal/api"
	"holmes/internal/fleet"
	"holmes/internal/serve"
)

// loadSnapshot warm-starts the caches from file; a missing file is a
// cold boot, not an error. A bad file is logged and ignored — a stale or
// corrupt snapshot must never keep the server from starting.
func loadSnapshot(srv *api.Server, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("holmes-serve: cache snapshot %s unreadable: %v (cold boot)", path, err)
		}
		return
	}
	counts, err := srv.LoadSnapshot(data)
	if err != nil {
		log.Printf("holmes-serve: cache snapshot %s rejected: %v (cold boot)", path, err)
		return
	}
	log.Printf("holmes-serve: warm boot from %s (%d responses, %d plan entries)",
		path, counts.Responses, counts.Plans)
}

// writeSnapshot persists the caches atomically (write temp, rename).
func writeSnapshot(srv *api.Server, path string) {
	doc, err := srv.SaveSnapshot()
	if err != nil {
		log.Printf("holmes-serve: cache snapshot: %v", err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		log.Printf("holmes-serve: cache snapshot %s: %v", tmp, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		log.Printf("holmes-serve: cache snapshot %s: %v", path, err)
		return
	}
	log.Printf("holmes-serve: cache snapshot written to %s (%d bytes)", path, len(doc))
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", 1, "independent engine shards (requests hash to shards by topology fingerprint)")
		workers  = flag.Int("workers", 0, "per-shard worker-pool bound (0 = CPU count)")
		cache    = flag.Int("cache", 0, "per-shard communicator cache entries (0 = default 512, negative = disabled)")
		inflight = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = max(8, 2x CPU count))")
		queue    = flag.Int("max-queue", 0, "max requests waiting for admission (0 = 8x max-inflight, negative = none); beyond this the server answers 429")
		retry    = flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429 responses")
		resp     = flag.Int("response-cache", 0, "completed answers cached, typed or as a repeated request body's stored bytes, which count one per answer they encode and are evicted first (0 = default 4096, negative = disabled)")
		oracle   = flag.Bool("full-recompute", false, "run every reference arm: full-recompute netsim, unpruned search, and from-scratch fleet replay (slow; for validation)")
		snapshot = flag.String("cache-snapshot", "", "cache snapshot file: loaded at boot, written on graceful shutdown (and every -snapshot-interval)")
		interval = flag.Duration("snapshot-interval", 0, "also rewrite -cache-snapshot periodically (0 = only on shutdown)")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (admission-exempt)")
		jdir     = flag.String("journal-dir", "", "directory for per-fleet journals and snapshots, recovered at boot (empty = fleets live in memory)")
		policy   = flag.String("fleet-policy", "", "default scheduling policy for freshly created fleets: "+strings.Join(fleet.PolicyNames(), ", ")+" (default "+fleet.DefaultPolicy+")")
		dash     = flag.Bool("dashboard", true, "serve the embedded live dashboard at / (admission-exempt, no build step)")
	)
	flag.Parse()

	pool := serve.New(serve.Config{
		Shards:           *shards,
		ShardConcurrency: *workers,
		ShardCacheSize:   *cache,
		FullRecompute:    *oracle,
		MaxInFlight:      *inflight,
		MaxQueue:         *queue,
		RetryAfter:       *retry,
		ResponseCache:    *resp,
	})
	apiSrv := api.NewServerPool(pool)
	apiSrv.EnablePprof(*pprofOn)
	apiSrv.EnableDashboard(*dash)
	recovered, err := apiSrv.ConfigureOperators(api.OperatorMode{JournalDir: *jdir, Policy: *policy})
	if err != nil {
		log.Fatalf("holmes-serve: fleets: %v", err)
	}
	if *jdir != "" {
		log.Printf("holmes-serve: durable fleets in %s (%d recovered, default policy %s)",
			*jdir, recovered, firstNonEmpty(*policy, fleet.DefaultPolicy))
	}
	if *snapshot != "" {
		loadSnapshot(apiSrv, *snapshot)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           apiSrv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("holmes-serve %s listening on %s (shards=%d, workers=%d)\n",
		api.Version, *addr, pool.Shards(), pool.Concurrency())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *snapshot != "" && *interval > 0 {
		go func() {
			t := time.NewTicker(*interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					writeSnapshot(apiSrv, *snapshot)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: new admission-gated work answers 429 while in-flight
	// requests get up to -drain-timeout to finish, then the caches are
	// snapshotted so the next boot starts warm.
	log.Printf("holmes-serve: signal received, draining (timeout %s)", *drain)
	apiSrv.SetDraining(true)
	// End every /v1/events stream in-band (event: eof) so open SSE
	// connections don't pin srv.Shutdown to the drain deadline.
	apiSrv.Events().Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("holmes-serve: drain incomplete: %v", err)
	}
	if *snapshot != "" {
		writeSnapshot(apiSrv, *snapshot)
	}
	// Retire what is retirable, cut final snapshots, close the journals.
	// A crash skips this — that is what recovery replays.
	if err := apiSrv.CloseOperators(); err != nil {
		log.Printf("holmes-serve: fleet shutdown: %v", err)
	}
	log.Printf("holmes-serve: shutdown complete")
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
