package core

import (
	"encoding/json"
	"fmt"

	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/trainer"
)

// Search-winner memo: a successful searchBest records its winning
// degrees on the engine's shared plan cache, keyed by everything the
// search outcome depends on — topology fingerprint, model spec,
// framework, the resolved options, and the candidate space. A later
// identical search replays the winner with a single Plan simulation
// instead of walking the space again; because planning is deterministic,
// the replayed Plan (and its Report) is bit-identical to the one the
// original search returned. The oracle arm (engine FullRecompute)
// bypasses the memo entirely.
//
// Unlike the fleet scheduler's plan-cache entries — live planner
// pointers, inherently process-local — the memo entry is a pair of small
// integers derived deterministically from its key, which is what makes
// it the one plan-cache entry kind worth persisting across process
// restarts (SaveSearchMemo and RestoreSearchMemo, DESIGN.md decision 11).

// searchMemoKey is the package-private plan-cache key (cannot collide
// with other packages' key types).
type searchMemoKey struct {
	fp    string
	spec  model.Spec
	fw    trainer.Framework
	opts  string
	space string
}

// searchMemoVal is the winning degrees of one search.
type searchMemoVal struct {
	T, P int
}

// searchMemoKey builds the memo key for this planner and candidate
// space. The resolved options are rendered to a deterministic signature
// (Options holds a slice, so the struct itself is not comparable).
func (pl *Planner) searchMemoKey(space string) searchMemoKey {
	opt := trainer.DefaultOptions(pl.Framework)
	if pl.Opt != nil {
		opt = *pl.Opt
	}
	return searchMemoKey{
		fp:    pl.Topo.Fingerprint(),
		spec:  pl.Spec,
		fw:    pl.Framework,
		opts:  fmt.Sprintf("%+v", opt),
		space: space,
	}
}

// searchMemoJSON is the wire form of one memo entry.
type searchMemoJSON struct {
	Fingerprint string     `json:"fingerprint"`
	Spec        model.Spec `json:"spec"`
	Framework   string     `json:"framework"`
	Options     string     `json:"options"`
	Space       string     `json:"space"`
}

type searchMemoValJSON struct {
	Tensor   int `json:"tensor"`
	Pipeline int `json:"pipeline"`
}

// searchMemoKind tags memo entries in snapshots.
const searchMemoKind = "core.search-winner"

// MemoEntry is one search-winner memo entry as a cache snapshot stores
// it: its kind tag, key and value.
type MemoEntry struct {
	Kind string          `json:"kind"`
	Key  json.RawMessage `json:"key"`
	Val  json.RawMessage `json:"val"`
}

// SaveSearchMemo renders the engine's search-winner memo entries, least
// recently used first, so restoring them in order reproduces the
// recency order. The plan cache's other entries, the fleet scheduler's
// live planner pointers, are process-local and left out.
func SaveSearchMemo(eng *engine.Engine) ([]MemoEntry, error) {
	var out []MemoEntry
	for _, pe := range eng.PlanEntries() {
		k, ok := pe.Key.(searchMemoKey)
		if !ok {
			continue
		}
		v, ok := pe.Val.(searchMemoVal)
		if !ok {
			continue
		}
		kb, err := json.Marshal(searchMemoJSON{
			Fingerprint: k.fp, Spec: k.spec, Framework: string(k.fw),
			Options: k.opts, Space: k.space,
		})
		if err != nil {
			return nil, fmt.Errorf("core: memo key: %w", err)
		}
		vb, err := json.Marshal(searchMemoValJSON{Tensor: v.T, Pipeline: v.P})
		if err != nil {
			return nil, fmt.Errorf("core: memo value: %w", err)
		}
		out = append(out, MemoEntry{Kind: searchMemoKind, Key: kb, Val: vb})
	}
	return out, nil
}

// RestoreSearchMemo stores snapshot memo entries on the engine, in
// order. It decodes every entry before storing any, and fails without
// storing on an entry of another kind or one that does not decode: a
// snapshot that decodes halfway must not half-poison the cache.
func RestoreSearchMemo(eng *engine.Engine, entries []MemoEntry) error {
	staged := make([]engine.PlanEntry, len(entries))
	for i, e := range entries {
		if e.Kind != searchMemoKind {
			return fmt.Errorf("core: snapshot entry %d has unknown kind %q", i, e.Kind)
		}
		key, val, err := decodeMemoEntry(e)
		if err != nil {
			return fmt.Errorf("core: snapshot entry %d (%s): %w", i, e.Kind, err)
		}
		staged[i] = engine.PlanEntry{Key: key, Val: val}
	}
	for _, pe := range staged {
		eng.StorePlan(pe.Key, pe.Val)
	}
	return nil
}

// decodeMemoEntry reconstructs one entry's in-memory key and value.
func decodeMemoEntry(e MemoEntry) (searchMemoKey, searchMemoVal, error) {
	var kj searchMemoJSON
	if err := json.Unmarshal(e.Key, &kj); err != nil {
		return searchMemoKey{}, searchMemoVal{}, fmt.Errorf("bad memo key: %w", err)
	}
	var vj searchMemoValJSON
	if err := json.Unmarshal(e.Val, &vj); err != nil {
		return searchMemoKey{}, searchMemoVal{}, fmt.Errorf("bad memo value: %w", err)
	}
	if kj.Fingerprint == "" || kj.Space == "" {
		return searchMemoKey{}, searchMemoVal{}, fmt.Errorf("memo entry missing fingerprint or space")
	}
	if vj.Tensor < 1 || vj.Pipeline < 1 {
		return searchMemoKey{}, searchMemoVal{}, fmt.Errorf("memo entry has non-positive degrees (t=%d, p=%d)", vj.Tensor, vj.Pipeline)
	}
	key := searchMemoKey{
		fp: kj.Fingerprint, spec: kj.Spec, fw: trainer.Framework(kj.Framework),
		opts: kj.Options, space: kj.Space,
	}
	return key, searchMemoVal{T: vj.Tensor, P: vj.Pipeline}, nil
}
