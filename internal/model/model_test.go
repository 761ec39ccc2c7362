package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParameterCountsMatchTable2(t *testing.T) {
	// Table 2: groups 1–2 are 3.6B, groups 3–4 are 7.5B.
	cases := []struct {
		id   int
		want float64 // billions
	}{
		{1, 3.6}, {2, 3.6}, {3, 7.5}, {4, 7.5},
	}
	for _, tc := range cases {
		g := Group(tc.id)
		got := float64(g.Spec.Params()) / 1e9
		if math.Abs(got-tc.want) > 0.1 {
			t.Errorf("group %d: %.2fB params, want ~%.1fB", tc.id, got, tc.want)
		}
	}
}

func TestGPT39BParamCount(t *testing.T) {
	got := float64(GPT39B(1536).Params()) / 1e9
	if math.Abs(got-39.1) > 0.5 {
		t.Fatalf("GPT39B = %.2fB params, want ~39.1B (Figure 7)", got)
	}
}

func TestTable2Shapes(t *testing.T) {
	gs := ParameterGroups()
	if len(gs) != 4 {
		t.Fatalf("want 4 parameter groups, got %d", len(gs))
	}
	wants := []struct {
		hidden, layers, pp, batch int
	}{
		{3072, 30, 2, 768},
		{3072, 30, 2, 1536},
		{4096, 36, 3, 1536},
		{4096, 36, 3, 2688},
	}
	for i, w := range wants {
		g := gs[i]
		if g.Spec.Hidden != w.hidden || g.Spec.Layers != w.layers ||
			g.PipelineSize != w.pp || g.Spec.GlobalBatch != w.batch {
			t.Errorf("group %d = %+v, want %+v", i+1, g, w)
		}
		if g.TensorSize != 1 {
			t.Errorf("group %d tensor size = %d, want 1", i+1, g.TensorSize)
		}
		if g.Spec.Heads != 32 {
			t.Errorf("group %d heads = %d, want 32", i+1, g.Spec.Heads)
		}
		if err := g.Spec.Validate(); err != nil {
			t.Errorf("group %d invalid: %v", i+1, err)
		}
	}
}

// The paper's Table 1 is internally consistent with the Megatron FLOPs
// formula: for PG1 on 32 GPUs, TFLOPS = F/(T·N) and Throughput = B/T give
// 197 TFLOPS at 99.23 samples/s. Verify our formula reproduces that
// relation.
func TestFLOPsFormulaConsistentWithTable1(t *testing.T) {
	s := Group(1).Spec
	throughput := 99.23 // samples/s, Table 1 InfiniBand row
	iterTime := float64(s.GlobalBatch) / throughput
	tflops := s.FLOPsPerIteration() / (iterTime * 32) / 1e12
	if math.Abs(tflops-197) > 4 {
		t.Fatalf("implied TFLOPS = %.1f, want ~197 (Table 1)", tflops)
	}
}

func TestFLOPsScaleLinearlyInBatch(t *testing.T) {
	a, b := gpt36(768), gpt36(1536)
	ratio := b.FLOPsPerIteration() / a.FLOPsPerIteration()
	if math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("doubling batch scaled FLOPs by %v, want 2", ratio)
	}
	if a.FLOPsPerSample() != b.FLOPsPerSample() {
		t.Fatal("per-sample FLOPs must not depend on batch")
	}
}

func TestFLOPsForLayersExcludesVocab(t *testing.T) {
	s := Group(1).Spec
	all := s.FLOPsForLayers(s.Layers, s.GlobalBatch)
	full := s.FLOPsPerIteration()
	if all >= full {
		t.Fatalf("layer FLOPs %v must be below full (vocab-included) %v", all, full)
	}
	if all < 0.9*full {
		t.Fatalf("vocab term too large: layers=%v full=%v", all, full)
	}
	// Additivity over a split.
	part := s.FLOPsForLayers(10, s.GlobalBatch) + s.FLOPsForLayers(20, s.GlobalBatch)
	if math.Abs(part-all)/all > 1e-12 {
		t.Fatalf("layer FLOPs not additive: %v vs %v", part, all)
	}
}

func TestMicroBatches(t *testing.T) {
	s := Group(1).Spec // B=768, b=4
	m, err := s.MicroBatches(16)
	if err != nil || m != 12 {
		t.Fatalf("m = %d err = %v, want 12", m, err)
	}
	if _, err := s.MicroBatches(0); err == nil {
		t.Fatal("dp=0 must error")
	}
	if _, err := s.MicroBatches(7); err == nil {
		t.Fatal("non-dividing dp must error")
	}
}

func TestStageMemoryShrinksWithSharding(t *testing.T) {
	s := Group(3).Spec
	unsharded := s.StageMemoryBytes(12, 16, 1, 3, false)
	sharded := s.StageMemoryBytes(12, 16, 1, 3, true)
	if sharded >= unsharded {
		t.Fatalf("distributed optimizer must shrink memory: %d vs %d", sharded, unsharded)
	}
	// Sanity: a 12-layer 7.5B stage fits in an A100-80GB with sharding.
	if sharded > 80<<30 {
		t.Fatalf("sharded stage = %d GiB, should fit 80 GiB", sharded>>30)
	}
}

func TestStageMemoryMonotoneInLayers(t *testing.T) {
	s := Group(1).Spec
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%30)+1, int(bRaw%30)+1
		ma := s.StageMemoryBytes(a, 8, 1, 2, true)
		mb := s.StageMemoryBytes(b, 8, 1, 2, true)
		if a < b {
			return ma < mb
		}
		if a > b {
			return ma > mb
		}
		return ma == mb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGradientBytes(t *testing.T) {
	s := Group(1).Spec
	// 15 layers of a 3072-hidden model in fp16.
	want := float64(15*(12*3072*3072+13*3072)) * 2
	if got := s.GradientBytes(15, 1); got != want {
		t.Fatalf("GradientBytes = %v, want %v", got, want)
	}
	if got := s.GradientBytes(15, 2); got != want/2 {
		t.Fatalf("tensor sharding must halve gradients: %v", got)
	}
}

func TestActivationMessageBytes(t *testing.T) {
	s := Group(1).Spec // b=4, s=2048, h=3072
	want := 4.0 * 2048 * 3072 * 2
	if got := s.ActivationMessageBytes(); got != want {
		t.Fatalf("ActivationMessageBytes = %v, want %v", got, want)
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	good := gpt36(768)
	bad := []Spec{
		{}, // all zero
		func() Spec { s := good; s.Hidden = 3070; return s }(), // heads don't divide
		func() Spec { s := good; s.MicroBatch = 0; return s }(),
		func() Spec { s := good; s.Vocab = -1; return s }(),
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestGroupPanicsOutOfRange(t *testing.T) {
	for _, id := range []int{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Group(%d) did not panic", id)
				}
			}()
			Group(id)
		}()
	}
}

func TestStringMentionsSize(t *testing.T) {
	s := Group(1).Spec.String()
	if len(s) == 0 || s[:3] != "GPT" {
		t.Fatalf("String() = %q", s)
	}
}

// Validate bounds both footprints a spec derives at maxBytes, so no
// parameter or byte count of a valid spec wraps int64: a hostile hidden
// size used to wrap 12·h² negative and slip under every memory check.
func TestValidateBoundsFootprints(t *testing.T) {
	tiny := Spec{Name: "tiny", Layers: 1, Hidden: 1, Heads: 1, Vocab: 1, SeqLen: 1, GlobalBatch: 1, MicroBatch: 1}
	// Training state: 16 bytes × (12 + 13 + V + s) parameters.
	state := tiny
	state.Vocab = maxBytes/stateBytesPerParam - 26
	if err := state.Validate(); err != nil {
		t.Fatalf("training state at the bound rejected: %v", err)
	}
	if got := state.Params() * stateBytesPerParam; got != maxBytes {
		t.Fatalf("bound spec holds %d bytes of state, want %d", got, int64(maxBytes))
	}
	state.Vocab++
	if err := state.Validate(); err == nil {
		t.Fatal("training state one parameter above the bound accepted")
	}
	// Activations: s·b·h·34 bytes per layer, times Layers².
	act := tiny
	act.SeqLen = maxBytes / 34
	if err := act.Validate(); err != nil {
		t.Fatalf("activations at the bound rejected: %v", err)
	}
	act.SeqLen++
	if err := act.Validate(); err == nil {
		t.Fatal("activations one token above the bound accepted")
	}
	// Wrap-prone dimensions are caught before any product is formed.
	for _, s := range []Spec{
		{Name: "wide", Layers: 4, Hidden: 1_000_000_000, Heads: 8, Vocab: StdVocab, SeqLen: StdSeqLen, GlobalBatch: 64, MicroBatch: 4},
		{Name: "deep", Layers: math.MaxInt64, Hidden: 8, Heads: 8, Vocab: StdVocab, SeqLen: StdSeqLen, GlobalBatch: 64, MicroBatch: 4},
		{Name: "long", Layers: 4, Hidden: 8, Heads: 8, Vocab: math.MaxInt64, SeqLen: math.MaxInt64, GlobalBatch: 64, MicroBatch: 4},
		{Name: "batch", Layers: 4, Hidden: 8, Heads: 8, Vocab: StdVocab, SeqLen: StdSeqLen, GlobalBatch: math.MaxInt64, MicroBatch: math.MaxInt64},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec accepted", s.Name)
		}
	}
	for _, g := range ParameterGroups() {
		if err := g.Spec.Validate(); err != nil {
			t.Errorf("Table 2 group %d rejected: %v", g.ID, err)
		}
	}
	if err := GPT39B(1536).Validate(); err != nil {
		t.Errorf("GPT-39B rejected: %v", err)
	}
}
