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
// restarts (SearchMemoCodec, DESIGN.md decision 11).

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

type searchMemoCodec struct{}

// SearchMemoCodec returns the engine.PlanCodec that persists search-
// winner memo entries (the snapshot/warm-start path of holmes-serve).
func SearchMemoCodec() engine.PlanCodec { return searchMemoCodec{} }

func (searchMemoCodec) Kind() string { return searchMemoKind }

func (searchMemoCodec) Encode(key, val any) (engine.PlanSnapshotEntry, bool) {
	k, ok := key.(searchMemoKey)
	if !ok {
		return engine.PlanSnapshotEntry{}, false
	}
	v, ok := val.(searchMemoVal)
	if !ok {
		return engine.PlanSnapshotEntry{}, false
	}
	kb, err := json.Marshal(searchMemoJSON{
		Fingerprint: k.fp, Spec: k.spec, Framework: string(k.fw),
		Options: k.opts, Space: k.space,
	})
	if err != nil {
		return engine.PlanSnapshotEntry{}, false
	}
	vb, err := json.Marshal(searchMemoValJSON{Tensor: v.T, Pipeline: v.P})
	if err != nil {
		return engine.PlanSnapshotEntry{}, false
	}
	return engine.PlanSnapshotEntry{Kind: searchMemoKind, Key: kb, Val: vb}, true
}

func (searchMemoCodec) Decode(e engine.PlanSnapshotEntry) (any, any, string, error) {
	var kj searchMemoJSON
	if err := json.Unmarshal(e.Key, &kj); err != nil {
		return nil, nil, "", fmt.Errorf("core: bad memo key: %w", err)
	}
	var vj searchMemoValJSON
	if err := json.Unmarshal(e.Val, &vj); err != nil {
		return nil, nil, "", fmt.Errorf("core: bad memo value: %w", err)
	}
	if kj.Fingerprint == "" || kj.Space == "" {
		return nil, nil, "", fmt.Errorf("core: memo entry missing fingerprint or space")
	}
	if vj.Tensor < 1 || vj.Pipeline < 1 {
		return nil, nil, "", fmt.Errorf("core: memo entry has non-positive degrees (t=%d, p=%d)", vj.Tensor, vj.Pipeline)
	}
	key := searchMemoKey{
		fp: kj.Fingerprint, spec: kj.Spec, fw: trainer.Framework(kj.Framework),
		opts: kj.Options, space: kj.Space,
	}
	return key, searchMemoVal{T: vj.Tensor, P: vj.Pipeline}, kj.Fingerprint, nil
}
