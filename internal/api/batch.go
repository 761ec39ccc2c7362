package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"holmes/internal/config"
)

// POST /v1/plan/batch answers up to maxBatchItems heterogeneous
// plan/search/simulate specs in one round trip. Items are mutually
// independent: they fan out over the engine's worker budget, results
// come back in input order, and one item's
// failure is reported in its slot without failing the batch. The whole
// batch occupies a single admission slot — a 256-item batch is one unit
// of backpressure, not 256.

// maxBatchItems bounds one batch request.
const maxBatchItems = 256

// maxBatchBodyBytes bounds the batch envelope: maxBatchItems times a
// generous per-item config size.
const maxBatchBodyBytes = maxBatchItems * (16 << 10)

// BatchRequest is the envelope of /v1/plan/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItem is one spec of a batch: an operation plus the same
// config.Config body the corresponding single-request endpoint takes.
type BatchItem struct {
	// Op selects the operation: "plan", "search", or "simulate".
	Op     string          `json:"op"`
	Config json.RawMessage `json:"config"`
}

// BatchItemResult is one slot of a batch response; exactly one of Plan,
// Search, Simulate, or Error is set, and Index always echoes the item's
// input position.
type BatchItemResult struct {
	Index    int               `json:"index"`
	Plan     *PlanResponse     `json:"plan,omitempty"`
	Search   *SearchResponse   `json:"search,omitempty"`
	Simulate *SimulateResponse `json:"simulate,omitempty"`
	// Error and Status report a per-item failure with the HTTP status the
	// single-request endpoint would have answered.
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// BatchResponse is the outcome of /v1/plan/batch. The HTTP status is 200
// whenever the envelope was well-formed; per-item failures live in
// Results with Errors counting them.
type BatchResponse struct {
	Count   int               `json:"count"`
	Errors  int               `json:"errors"`
	Results []BatchItemResult `json:"results"`
}

// batchJob is one decoded, validated batch item ready to execute.
type batchJob struct {
	op  string
	cfg *config.Config
	// seen holds the item's canonical (op, config) key, made once for
	// duplicate detection and used again by its lookup, and what that
	// lookup saw.
	seen sighting
}

// parseBatch decodes and validates a batch envelope: strict JSON, item
// count in [1, maxBatchItems], every op known, every config decodable
// under the single-request rules (strict fields, node and scenario
// bounds), and no two items identical — a duplicate item is a client bug
// that would silently waste a result slot, so it is rejected by name
// rather than answered twice.
func parseBatch(r io.Reader) ([]batchJob, error) {
	var req BatchRequest
	if err := config.DecodeStrict(r, &req); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if len(req.Items) == 0 {
		return nil, fmt.Errorf("batch: empty batch (need 1..%d items)", maxBatchItems)
	}
	if len(req.Items) > maxBatchItems {
		return nil, fmt.Errorf("batch: %d items exceeds the per-request limit of %d", len(req.Items), maxBatchItems)
	}
	jobs := make([]batchJob, len(req.Items))
	seen := make(map[string]int, len(req.Items))
	for i, item := range req.Items {
		switch item.Op {
		case "plan", "search", "simulate":
		case "":
			return nil, fmt.Errorf("batch: item %d has no op (want plan, search, or simulate)", i)
		default:
			return nil, fmt.Errorf("batch: item %d has unknown op %q (want plan, search, or simulate)", i, item.Op)
		}
		if len(item.Config) == 0 {
			return nil, fmt.Errorf("batch: item %d has no config", i)
		}
		c, err := config.Load(bytes.NewReader(item.Config))
		if err != nil {
			return nil, fmt.Errorf("batch: item %d: %w", i, err)
		}
		if err := checkBounds(c); err != nil {
			return nil, fmt.Errorf("batch: item %d: %w", i, err)
		}
		key := coalesceKey(item.Op, c)
		if j, dup := seen[key]; dup {
			return nil, fmt.Errorf("batch: items %d and %d are identical (op %s); send distinct items, duplicates would waste result slots", j, i, item.Op)
		}
		seen[key] = i
		jobs[i] = batchJob{op: item.Op, cfg: c, seen: sighting{key: key}}
	}
	return jobs, nil
}

// handleBatch answers a batch envelope. Its bytes are stored under its
// digest once every item was asked for before; an item that failed never
// was, since an error is never cached (DESIGN.md decision 8), so a batch
// with an item error runs again on its next copy.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serveBody(w, r, epBatch, maxBatchBodyBytes, func(body io.Reader) (any, []string, error) {
		jobs, err := parseBatch(body)
		if err != nil {
			return nil, nil, badBody(err)
		}
		resp := s.runBatch(jobs)
		for _, j := range jobs {
			if !j.seen.again {
				return resp, nil, nil
			}
		}
		keys := make([]string, len(jobs))
		for i, j := range jobs {
			keys[i] = j.seen.key
		}
		return resp, keys, nil
	})
}

// runBatch answers decoded batch items.
func (s *Server) runBatch(jobs []batchJob) *BatchResponse {
	resp := &BatchResponse{Count: len(jobs), Results: make([]BatchItemResult, len(jobs))}
	// Fan the items over the engine's worker budget. Results land at
	// their input index, so ordering never depends on scheduling; item
	// failures land in their slot as (status, error).
	s.pool.Engine().Go(len(jobs), func(i int) {
		res := BatchItemResult{Index: i}
		var opErr error
		switch jobs[i].op {
		case "plan":
			res.Plan, opErr = s.runPlan(epBatch, jobs[i].cfg, &jobs[i].seen)
		case "search":
			res.Search, opErr = s.runSearch(epBatch, jobs[i].cfg, &jobs[i].seen)
		case "simulate":
			res.Simulate, opErr = s.runSimulate(epBatch, jobs[i].cfg, &jobs[i].seen)
		}
		if opErr != nil {
			res.Error = opErr.Error()
			res.Status = errStatus(opErr)
		}
		resp.Results[i] = res
	})
	for _, res := range resp.Results {
		if res.Error != "" {
			resp.Errors++
		}
	}
	return resp
}
