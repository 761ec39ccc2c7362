package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"holmes/internal/scenario"
)

// Durable fleet state. The operator journals *mutations*, not
// schedules: every schedule is a deterministic replay of the live job
// set, so persisting the inputs (submit/cancel/event/policy records)
// is both smaller and stronger than persisting any derived placement —
// a recovered process re-derives bit-identical schedules by
// construction (DESIGN.md decision 13). The journal is an fsync'd
// NDJSON log: one compact JSON record per line, synced before the
// mutation is acknowledged to the caller.
// Periodic snapshots (same versioned-envelope/checksum codec as the
// api cache snapshot — re-implemented here because api imports fleet)
// bound recovery time: a snapshot embeds the journal sequence it
// covers, the journal restarts empty, and recovery is snapshot +
// replay of the journal suffix.

// Journal record kinds. Unknown kinds are rejected on recovery: a
// journal written by a newer build is not safe to half-understand.
const (
	RecCreate      = "create"       // fleet born: carries Spec and policy
	RecSubmit      = "submit"       // one job admitted (Submit already stamped)
	RecCancel      = "cancel"       // one job cancelled by ID
	RecApplyEvent  = "apply_event"  // one scenario event appended
	RecSetScenario = "set_scenario" // timeline replaced (nil clears)
	RecSetPolicy   = "set_policy"   // scheduling policy switched
	RecRetire      = "retire"       // completed jobs retired at an idle barrier
)

// journalKinds is the closed set a decoder accepts.
var journalKinds = map[string]bool{
	RecCreate: true, RecSubmit: true, RecCancel: true, RecApplyEvent: true,
	RecSetScenario: true, RecSetPolicy: true, RecRetire: true,
}

// Record is one journal line: a sequence number, the operator wall
// instant the mutation happened, the kind, and the kind's payload
// field(s).
type Record struct {
	Seq  uint64  `json:"seq"`
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
	// Fleet is the topology spec; RecCreate only.
	Fleet *Spec `json:"fleet,omitempty"`
	// Job is the admitted job, submit stamp included; RecSubmit only.
	Job *Job `json:"job,omitempty"`
	// ID names the cancelled job; RecCancel only.
	ID string `json:"id,omitempty"`
	// IDs lists the retired jobs; RecRetire only.
	IDs []string `json:"ids,omitempty"`
	// Event is the appended event; RecApplyEvent only.
	Event *scenario.Event `json:"event,omitempty"`
	// Scenario is the replacement timeline; RecSetScenario only (nil =
	// cleared).
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Policy is the policy name; RecCreate and RecSetPolicy.
	Policy string `json:"policy,omitempty"`
}

// decodeJournal parses journal bytes into records. It returns the
// records, the byte length of the good prefix, and an error for
// corruption that recovery must not paper over. A torn final record —
// a crash mid-write leaves one — is not corruption: it is discarded,
// and good points at the end of the last intact record so the caller
// can truncate the tail in place. Everything else is fatal: a
// malformed record with more records after it, an unknown kind, or a
// non-monotonic sequence number all mean the file is not what this
// build wrote.
func decodeJournal(data []byte) (recs []Record, good int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		line := data[off:]
		torn := nl < 0 // no terminator: the write never completed
		if !torn {
			line = data[off : off+nl]
		}
		if len(bytes.TrimSpace(line)) == 0 {
			if torn {
				break
			}
			off += nl + 1
			continue
		}
		var rec Record
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if derr := dec.Decode(&rec); derr != nil || dec.More() {
			if torn || allBlank(data[off+nl+1:]) {
				break // torn tail: drop it, keep the prefix
			}
			return nil, 0, fmt.Errorf("fleet: journal record %d is corrupt mid-file: %v", len(recs), derr)
		}
		if !journalKinds[rec.Kind] {
			return nil, 0, fmt.Errorf("fleet: journal record %d has unknown kind %q", len(recs), rec.Kind)
		}
		if len(recs) > 0 && rec.Seq <= recs[len(recs)-1].Seq {
			return nil, 0, fmt.Errorf("fleet: journal sequence went backwards: %d after %d", rec.Seq, recs[len(recs)-1].Seq)
		}
		if torn {
			// A record without its terminating newline may still be cut
			// short in a way that happens to parse; only a complete line
			// is trusted.
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		good = off
	}
	return recs, good, nil
}

func allBlank(data []byte) bool { return len(bytes.TrimSpace(data)) == 0 }

// PeekSpec reads the fleet spec a durable state was created for without
// replaying anything: the snapshot's recorded spec when one exists,
// else the journal's create record. ok=false means no durable state
// exists at all (a fresh boot). Corrupt state is an error, never a
// silent fresh boot — recovery must not quietly discard a fleet.
func PeekSpec(journalPath, snapshotPath string) (Spec, bool, error) {
	if snapshotPath == "" {
		snapshotPath = journalPath + ".snap"
	}
	if data, err := os.ReadFile(snapshotPath); err == nil {
		s, err := DecodeFleetSnapshot(data)
		if err != nil {
			return Spec{}, false, err
		}
		return s.Fleet, true, nil
	} else if !os.IsNotExist(err) {
		return Spec{}, false, err
	}
	data, err := os.ReadFile(journalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return Spec{}, false, nil
		}
		return Spec{}, false, err
	}
	recs, _, err := decodeJournal(data)
	if err != nil {
		return Spec{}, false, err
	}
	if len(recs) == 0 {
		return Spec{}, false, nil
	}
	if recs[0].Kind != RecCreate || recs[0].Fleet == nil {
		return Spec{}, false, fmt.Errorf("fleet: journal %s does not begin with a create record", journalPath)
	}
	return *recs[0].Fleet, true, nil
}

// Journal is the fsync'd append-only mutation log of one operator.
// An in-memory journal (empty path) only numbers its records: it keeps
// no bytes, for a fleet that need not outlive its process.
type Journal struct {
	mu     sync.Mutex
	f      *os.File // nil for an in-memory journal
	path   string
	seq    uint64
	closed bool
}

// OpenJournal opens (or creates) the journal at path, decodes the
// surviving records, truncates any torn tail in place, and positions
// for appending. The returned records are what recovery replays. An
// empty path opens an in-memory journal with nothing to recover.
func OpenJournal(path string) (*Journal, []Record, error) {
	if path == "" {
		return &Journal{}, nil, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := decodeJournal(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, path: path}
	if len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq
	}
	return j, recs, nil
}

// Seq is the sequence number of the newest durable record.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// SeedSeq raises the journal's sequence floor to seq, so the next
// append is numbered seq+1. Recovery calls it with a loaded snapshot's
// Seq: the snapshot truncated the journal, so a restarted process
// would otherwise number fresh records from 1 — and a later recovery
// would mistake those acknowledged, fsync'd mutations for ones the
// snapshot already covers and silently skip them. No-op when the
// journal is already past seq (it then holds records newer than the
// snapshot).
func (j *Journal) SeedSeq(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.seq {
		j.seq = seq
	}
}

// Append assigns the next sequence number, writes the record as one
// compact JSON line, and fsyncs before returning: when Append returns,
// the mutation survives a crash. The operator validates and applies a
// mutation first, then journals it, and acknowledges the caller only
// after Append succeeds — so every acknowledged mutation is durable,
// and a crash between apply and fsync loses only mutations no client
// was ever told about.
func (j *Journal) Append(rec Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("fleet: journal %s is closed", j.path)
	}
	rec.Seq = j.seq + 1
	if j.f != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return 0, err
		}
		if _, err := j.f.Write(append(line, '\n')); err != nil {
			return 0, err
		}
		if err := j.f.Sync(); err != nil {
			return 0, err
		}
	}
	j.seq = rec.Seq
	return rec.Seq, nil
}

// Reset truncates the journal after a snapshot at seq became durable:
// replay now starts from the snapshot, so the log restarts empty while
// sequence numbers keep counting from the snapshot's.
func (j *Journal) Reset(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("fleet: journal %s is closed", j.path)
	}
	if j.f != nil {
		if err := j.f.Truncate(0); err != nil {
			return err
		}
		if _, err := j.f.Seek(0, 0); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	if seq > j.seq {
		j.seq = seq
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Fleet snapshot codec: the same versioned-envelope/checksum shape as
// the api cache snapshot (PR 7), carrying the operator's durable state
// instead of caches. api imports fleet, so the small codec is
// re-implemented here rather than creating an import cycle.
const (
	FleetSnapshotFormat  = "holmes-fleet-snapshot"
	FleetSnapshotVersion = 1
)

// FleetSnapshot is the operator's durable state at one instant: the
// journal sequence it covers, the operator wall clock, and everything
// needed to rebuild the manager — spec, policy, live jobs, timeline —
// plus the placements of already-retired jobs.
type FleetSnapshot struct {
	// Seq is the newest journal record folded into this snapshot;
	// recovery replays only records with Seq greater than it.
	Seq uint64 `json:"seq"`
	// Now is the operator wall instant the snapshot was taken at; a
	// recovered operator resumes its wall clock from here.
	Now    float64 `json:"now"`
	Fleet  Spec    `json:"fleet"`
	Policy string  `json:"policy,omitempty"`
	// Jobs is the live set, sorted by (submit, id) for stable bytes.
	Jobs     []Job              `json:"jobs"`
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Done holds the final placements of retired jobs, by retirement
	// order.
	Done []Placement `json:"done,omitempty"`
}

type fleetSnapshotEnvelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum_fnv64a"`
	Payload  json.RawMessage `json:"payload"`
}

// journalChecksum is FNV-64a over the payload's compact JSON bytes,
// hex-encoded (identical to the api snapshot's payloadChecksum: the
// checksum guards content, not formatting).
func journalChecksum(payload []byte) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err == nil {
		payload = buf.Bytes()
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeFleetSnapshot serializes a snapshot into the enveloped
// document.
func EncodeFleetSnapshot(s FleetSnapshot) ([]byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot payload: %w", err)
	}
	doc, err := json.MarshalIndent(fleetSnapshotEnvelope{
		Format:   FleetSnapshotFormat,
		Version:  FleetSnapshotVersion,
		Checksum: journalChecksum(raw),
		Payload:  raw,
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("fleet: snapshot envelope: %w", err)
	}
	return append(doc, '\n'), nil
}

// DecodeFleetSnapshot validates and decodes a snapshot document:
// format, version, and checksum are all checked before the payload is
// trusted, and any failure rejects the whole file.
func DecodeFleetSnapshot(data []byte) (FleetSnapshot, error) {
	var env fleetSnapshotEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return FleetSnapshot{}, fmt.Errorf("fleet: snapshot: %w", err)
	}
	if env.Format != FleetSnapshotFormat {
		return FleetSnapshot{}, fmt.Errorf("fleet: snapshot format %q (want %q)", env.Format, FleetSnapshotFormat)
	}
	if env.Version != FleetSnapshotVersion {
		return FleetSnapshot{}, fmt.Errorf("fleet: snapshot version %d (want %d)", env.Version, FleetSnapshotVersion)
	}
	if got := journalChecksum(env.Payload); got != env.Checksum {
		return FleetSnapshot{}, fmt.Errorf("fleet: snapshot checksum %s does not match payload (%s)", env.Checksum, got)
	}
	var s FleetSnapshot
	pdec := json.NewDecoder(bytes.NewReader(env.Payload))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(&s); err != nil {
		return FleetSnapshot{}, fmt.Errorf("fleet: snapshot payload: %w", err)
	}
	return s, nil
}
