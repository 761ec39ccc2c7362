// Package model describes transformer language models the way the
// scheduler sees them: parameter counts, FLOP counts, and memory
// footprints as functions of the architecture (layers, hidden size, heads,
// vocabulary, sequence length).
//
// The FLOPs formula is the one the paper's TFLOPS metric is defined by
// (§2.3, "the computational formula aligns with that in [20]"), i.e.
// Narayanan et al., "Efficient Large-Scale Language Model Training on GPU
// Clusters Using Megatron-LM":
//
//	F = 96·B·s·l·h² · (1 + s/(6h) + V/(16·l·h))
//
// per iteration with batch B, sequence length s, l layers, hidden h,
// vocabulary V.
package model

import (
	"fmt"
	"math/bits"
)

// Spec is a transformer architecture plus training shape.
type Spec struct {
	Name string
	// Architecture.
	Layers int // l: transformer layers
	Hidden int // h: hidden size
	Heads  int // attention heads
	Vocab  int // V: vocabulary size
	SeqLen int // s: sequence length
	// Training shape.
	GlobalBatch int // B: samples per iteration
	MicroBatch  int // b: samples per micro-batch per pipeline
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	switch {
	case s.Layers <= 0 || s.Hidden <= 0 || s.Heads <= 0:
		return fmt.Errorf("model %s: non-positive architecture dims", s.Name)
	case s.Hidden%s.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", s.Name, s.Hidden, s.Heads)
	case s.Vocab <= 0 || s.SeqLen <= 0:
		return fmt.Errorf("model %s: non-positive vocab/seq", s.Name)
	case s.GlobalBatch <= 0 || s.MicroBatch <= 0:
		return fmt.Errorf("model %s: non-positive batch sizes", s.Name)
	case s.stateBytes() > maxBytes:
		return fmt.Errorf("model %s: %d layers of hidden %d hold more than %d bytes of weights, gradients and optimizer state", s.Name, s.Layers, s.Hidden, maxBytes)
	case s.activationBytes() > maxBytes:
		return fmt.Errorf("model %s: activations of %d layers at full pipeline residency exceed %d bytes", s.Name, s.Layers, maxBytes)
	}
	return nil
}

// maxBytes bounds the two footprints Validate checks: the training state
// (stateBytesPerParam per parameter) and the activations of every layer
// with every layer's micro-batch resident, the most a pipeline of at most
// Layers stages holds. 2^61 bytes is a million times any trainable model,
// and it keeps the int64 counts and memory estimates derived from a valid
// spec, and their sums, from wrapping.
const maxBytes = 1 << 61

// stateBytes is the training state of the whole model,
// stateBytesPerParam × Params(), saturating just above maxBytes.
func (s Spec) stateBytes() uint64 {
	l, h := uint64(s.Layers), uint64(s.Hidden)
	params := addCap(addCap(mulCap(mulCap(mulCap(12, l), h), h), mulCap(mulCap(13, l), h)),
		mulCap(addCap(uint64(s.Vocab), uint64(s.SeqLen)), h))
	return mulCap(params, stateBytesPerParam)
}

// activationBytes is ActivationBytesPerLayer × Layers², saturating just
// above maxBytes.
func (s Spec) activationBytes() uint64 {
	l := uint64(s.Layers)
	perLayer := mulCap(mulCap(mulCap(uint64(s.SeqLen), uint64(s.MicroBatch)), uint64(s.Hidden)), 34)
	return mulCap(perLayer, mulCap(l, l))
}

// mulCap and addCap combine non-negative counts below 2^63, saturating
// at maxBytes+1 instead of wrapping.
func mulCap(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 && lo <= maxBytes {
		return lo
	}
	return maxBytes + 1
}

func addCap(a, b uint64) uint64 {
	if sum := a + b; sum <= maxBytes {
		return sum
	}
	return maxBytes + 1
}

// Params returns the total parameter count:
// 12·l·h² (attention + MLP) + 13·l·h (biases, layernorms) +
// (V+s)·h (token + position embeddings).
func (s Spec) Params() int64 {
	l, h := int64(s.Layers), int64(s.Hidden)
	return 12*l*h*h + 13*l*h + int64(s.Vocab+s.SeqLen)*h
}

// ParamsPerLayer returns parameters of one transformer layer (12h²+13h).
func (s Spec) ParamsPerLayer() int64 {
	h := int64(s.Hidden)
	return 12*h*h + 13*h
}

// FLOPsPerIteration returns the Megatron model-FLOPs count for one full
// training iteration (forward + backward, with activation recomputation
// factored in the 96 constant, matching the paper's TFLOPS definition).
func (s Spec) FLOPsPerIteration() float64 {
	b := float64(s.GlobalBatch)
	seq := float64(s.SeqLen)
	l := float64(s.Layers)
	h := float64(s.Hidden)
	v := float64(s.Vocab)
	return 96 * b * seq * l * h * h * (1 + seq/(6*h) + v/(16*l*h))
}

// FLOPsForLayers returns the FLOPs share of `layers` consecutive
// transformer layers for `samples` samples, excluding the vocabulary
// projection term. Used by the self-adapting partition to weigh stages.
func (s Spec) FLOPsForLayers(layers, samples int) float64 {
	seq := float64(s.SeqLen)
	h := float64(s.Hidden)
	return 96 * float64(samples) * seq * float64(layers) * h * h * (1 + seq/(6*h))
}

// ActivationBytesPerLayer returns the fp16 activation memory one
// micro-batch leaves resident in one transformer layer (Korthikanti et
// al.'s s·b·h·34 with selective recomputation).
func (s Spec) ActivationBytesPerLayer() int64 {
	return int64(s.SeqLen) * int64(s.MicroBatch) * int64(s.Hidden) * 34
}

// ActivationBytesPerLayerRecompute returns the resident activation bytes
// per layer per micro-batch under full activation recomputation: only the
// fp16 layer-boundary tensors (input + output) stay resident, which is
// how Megatron fits very large models.
func (s Spec) ActivationBytesPerLayerRecompute() int64 {
	return int64(s.SeqLen) * int64(s.MicroBatch) * int64(s.Hidden) * 4
}

// WeightAndOptimizerBytesPerParam is the resident bytes per parameter in
// Megatron mixed-precision training: fp16 weight (2) + fp16 gradient (2)
// + fp32 master weight, momentum, and variance (12). With a distributed
// optimizer the 12 fp32 bytes shard across the data-parallel group.
const (
	WeightBytesPerParam    = 2
	GradBytesPerParam      = 2
	OptimizerBytesPerParam = 12

	// stateBytesPerParam is the unsharded total of the three.
	stateBytesPerParam = WeightBytesPerParam + GradBytesPerParam + OptimizerBytesPerParam
)

// StageMemoryBytes estimates the per-GPU memory of a pipeline stage
// holding `layers` layers, with data-parallel degree d, tensor degree t,
// `inflight` resident micro-batches (1F1B keeps ≤ p), and whether the
// optimizer state is sharded across d (distributed optimizer).
func (s Spec) StageMemoryBytes(layers, d, t, inflight int, shardOptimizer bool) int64 {
	if t <= 0 || d <= 0 {
		panic("model: non-positive parallel degree")
	}
	params := s.ParamsPerLayer() * int64(layers) / int64(t)
	static := params * (WeightBytesPerParam + GradBytesPerParam)
	opt := params * OptimizerBytesPerParam
	if shardOptimizer {
		opt /= int64(d)
	}
	act := s.ActivationBytesPerLayer() * int64(layers) * int64(inflight) / int64(t)
	return static + opt + act
}

// ActivationMessageBytes returns the fp16 tensor exchanged between
// adjacent pipeline stages per micro-batch: b·s·h·2.
func (s Spec) ActivationMessageBytes() float64 {
	return float64(s.MicroBatch) * float64(s.SeqLen) * float64(s.Hidden) * 2
}

// MicroBatches returns the number of micro-batches each pipeline processes
// per iteration given data-parallel degree d: m = B/(d·b). It errors if
// the batch does not divide evenly, mirroring Megatron's constraint.
func (s Spec) MicroBatches(d int) (int, error) {
	if d <= 0 {
		return 0, fmt.Errorf("model: non-positive data-parallel degree %d", d)
	}
	per := s.GlobalBatch / d
	if s.GlobalBatch%d != 0 {
		return 0, fmt.Errorf("model %s: global batch %d not divisible by dp degree %d", s.Name, s.GlobalBatch, d)
	}
	if per%s.MicroBatch != 0 {
		return 0, fmt.Errorf("model %s: per-replica batch %d not divisible by micro-batch %d", s.Name, per, s.MicroBatch)
	}
	return per / s.MicroBatch, nil
}

func (s Spec) String() string {
	return fmt.Sprintf("%s: %.1fB params (l=%d h=%d heads=%d V=%d s=%d B=%d b=%d)",
		s.Name, float64(s.Params())/1e9, s.Layers, s.Hidden, s.Heads,
		s.Vocab, s.SeqLen, s.GlobalBatch, s.MicroBatch)
}
