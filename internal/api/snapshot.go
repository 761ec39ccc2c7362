package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"holmes/internal/config"
	"holmes/internal/core"
)

// Cache snapshot/warm-start: everything in the response cache and the
// search-winner memo is a deterministic function of its key, so a fresh
// process that loads a snapshot answers the same corpus hot from boot —
// ROADMAP item 3's warm-start file. The snapshot is versioned JSON with
// a checksum over the payload; corrupt, truncated, or version-skewed
// files are rejected as a whole before anything touches a cache, and
// accepted entries are re-keyed through the normal LRU paths so the
// cache bounds still hold (DESIGN.md decision 11).

// SnapshotFormat and SnapshotVersion identify the file format. The
// envelope also pins the API version: response structs are not
// cross-version stable, and a stale warm-start is worthless rather than
// dangerous — rejecting is always safe.
const (
	SnapshotFormat  = "holmes-cache-snapshot"
	SnapshotVersion = 1
)

// snapshotEnvelope is the file's outer structure. Payload stays raw so
// the checksum covers its exact bytes.
type snapshotEnvelope struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	APIVersion string          `json:"api_version"`
	Checksum   string          `json:"checksum_fnv64a"`
	Payload    json.RawMessage `json:"payload"`
}

// snapshotPayload is the checksummed content.
type snapshotPayload struct {
	// Responses are completed-answer cache entries, least-recently-used
	// first (so replaying in order restores the recency order).
	Responses []responseSnapshot `json:"responses"`
	// Plans are the search-winner memo entries, least-recently-used
	// first.
	Plans []core.MemoEntry `json:"plans"`
}

// responseSnapshot is one response-cache entry: the operation, the
// canonical config the key was derived from, and the typed response.
type responseSnapshot struct {
	Op       string          `json:"op"`
	Config   json.RawMessage `json:"config"`
	Response json.RawMessage `json:"response"`
}

// SnapshotCounts reports what a load landed.
type SnapshotCounts struct {
	Responses int `json:"responses"`
	Plans     int `json:"plans"`
}

// payloadChecksum is FNV-64a over the payload's compact JSON bytes,
// hex-encoded. Compacting first makes the checksum insensitive to the
// re-indentation the envelope encoder applies to the embedded payload
// (it guards content, not formatting); non-JSON payload bytes are hashed
// as-is and fail the decode step instead.
func payloadChecksum(payload []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err == nil {
		payload = buf.Bytes()
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveSnapshot serializes the pool's response cache and search-winner
// memo into one snapshot document.
func (s *Server) SaveSnapshot() ([]byte, error) {
	var payload snapshotPayload
	for _, e := range s.pool.ResponseEntries() {
		op, cfg, ok := strings.Cut(e.Key, "\x00")
		if !ok {
			continue // not a coalesceKey-shaped entry; nothing else mints keys
		}
		resp, err := json.Marshal(e.Val)
		if err != nil {
			return nil, fmt.Errorf("api: snapshot response %q: %w", op, err)
		}
		payload.Responses = append(payload.Responses, responseSnapshot{
			Op: op, Config: json.RawMessage(cfg), Response: resp,
		})
	}
	plans, err := core.SaveSearchMemo(s.pool.Engine())
	if err != nil {
		return nil, fmt.Errorf("api: snapshot plans: %w", err)
	}
	payload.Plans = plans
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("api: snapshot payload: %w", err)
	}
	doc, err := json.MarshalIndent(snapshotEnvelope{
		Format:     SnapshotFormat,
		Version:    SnapshotVersion,
		APIVersion: Version,
		Checksum:   payloadChecksum(raw),
		Payload:    raw,
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("api: snapshot envelope: %w", err)
	}
	return append(doc, '\n'), nil
}

// LoadSnapshot validates and loads a snapshot document into the pool's
// caches. The whole file is decoded and re-keyed before anything is
// stored: a snapshot that fails any check — format, version, checksum,
// or any single entry — loads nothing.
func (s *Server) LoadSnapshot(data []byte) (SnapshotCounts, error) {
	var env snapshotEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot: %w", err)
	}
	if env.Format != SnapshotFormat {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot format %q (want %q)", env.Format, SnapshotFormat)
	}
	if env.Version != SnapshotVersion {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot version %d (want %d)", env.Version, SnapshotVersion)
	}
	if env.APIVersion != Version {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot from API %s (this server is %s)", env.APIVersion, Version)
	}
	if got := payloadChecksum(env.Payload); got != env.Checksum {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot checksum %s does not match payload (%s)", env.Checksum, got)
	}
	var payload snapshotPayload
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return SnapshotCounts{}, fmt.Errorf("api: snapshot payload: %w", err)
	}

	// Stage every response: re-derive the canonical key by running the
	// config back through the normal strict loader (a snapshot never gets
	// to mint keys the request path would not), and re-type the response
	// by operation.
	type staged struct {
		key string
		val any
	}
	responses := make([]staged, 0, len(payload.Responses))
	for i, re := range payload.Responses {
		c, err := config.Load(bytes.NewReader(re.Config))
		if err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: config: %w", i, err)
		}
		if err := checkBounds(c); err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: %w", i, err)
		}
		if _, err := c.Topology(); err != nil {
			// The request path would never have cached this config (it
			// fails before planning), so a snapshot must not key it either.
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: config: %w", i, err)
		}
		val, err := decodeSnapshotResponse(re.Op, re.Response)
		if err != nil {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: %w", i, err)
		}
		key := coalesceKey(re.Op, c)
		if key == "" {
			return SnapshotCounts{}, fmt.Errorf("api: snapshot response %d: unkeyable config", i)
		}
		responses = append(responses, staged{key: key, val: val})
	}
	// The memo restore is the last check: it stores nothing unless every
	// entry decodes, and the staged responses are stored only after it.
	if err := core.RestoreSearchMemo(s.pool.Engine(), payload.Plans); err != nil {
		return SnapshotCounts{}, err
	}
	for _, r := range responses {
		s.pool.StoreResponse(r.key, r.val)
	}
	return SnapshotCounts{Responses: len(responses), Plans: len(payload.Plans)}, nil
}

// decodeSnapshotResponse re-types one cached response by operation. A
// strict decode: an entry that does not round-trip exactly is corrupt.
func decodeSnapshotResponse(op string, raw json.RawMessage) (any, error) {
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	switch op {
	case "plan":
		v := new(PlanResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	case "search":
		v := new(SearchResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	case "simulate":
		v := new(SimulateResponse)
		if err := strict(v); err != nil {
			return nil, err
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}
