package config

import (
	"strings"
	"testing"

	"holmes/internal/trainer"
)

const hybridJSON = `{
  "clusters": [
    {"nic": "InfiniBand", "nodes": 4},
    {"nic": "RoCE", "nodes": 4}
  ],
  "model": {"group": 3},
  "tensor_size": 1,
  "pipeline_size": 4
}`

func TestLoadHybrid(t *testing.T) {
	c, err := Load(strings.NewReader(hybridJSON))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := c.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumClusters() != 2 || topo.NumDevices() != 64 {
		t.Fatalf("topology wrong: %s", topo)
	}
	spec, err := c.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Hidden != 4096 {
		t.Fatalf("group 3 hidden = %d", spec.Hidden)
	}
	tc, err := c.TrainerConfig()
	if err != nil {
		t.Fatal(err)
	}
	if tc.Framework != trainer.Holmes || tc.Opt != nil {
		t.Fatal("defaults wrong")
	}
	// The config must actually simulate.
	rep, err := trainer.Simulate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TFLOPS <= 0 {
		t.Fatal("simulation produced no throughput")
	}
}

func TestCustomModelAndOverrides(t *testing.T) {
	j := `{
      "clusters": [{"nic": "eth", "nodes": 2}],
      "model": {"layers": 12, "hidden": 1024, "heads": 16, "global_batch": 64},
      "tensor_size": 1,
      "pipeline_size": 2,
      "framework": "Megatron-LM",
      "self_adapting": true,
      "alpha": 1.1
    }`
	c, err := Load(strings.NewReader(j))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := c.TrainerConfig()
	if err != nil {
		t.Fatal(err)
	}
	if tc.Framework != trainer.MegatronLM {
		t.Fatalf("framework = %v", tc.Framework)
	}
	if tc.Opt == nil || !tc.Opt.SelfAdaptingPartition || tc.Opt.Alpha != 1.1 {
		t.Fatalf("overrides not applied: %+v", tc.Opt)
	}
	if tc.Spec.Vocab == 0 || tc.Spec.SeqLen == 0 || tc.Spec.MicroBatch == 0 {
		t.Fatal("defaults not filled")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{"unknown_field": 1}`,
		`{`,
		// Anything but whitespace after the object.
		`{"env":"IB","nodes":4,"model":{"group":1}}xyz`,
		`{"env":"IB","nodes":4,"model":{"group":1}} {"env":"RoCE"}`,
		`{"env":"IB","nodes":4,"model":{"group":1}}}`,
		`{"env":"IB","nodes":4,"model":{"group":1}}]`,
	}
	for _, j := range cases {
		if _, err := Load(strings.NewReader(j)); err == nil {
			t.Errorf("Load(%q) accepted", j)
		}
	}
	c, _ := Load(strings.NewReader(`{"clusters":[{"nic":"bogus","nodes":1}], "model":{"group":1}, "tensor_size":1, "pipeline_size":1}`))
	if _, err := c.Topology(); err == nil {
		t.Fatal("bogus NIC accepted")
	}
	c2, _ := Load(strings.NewReader(`{"clusters":[], "model":{"group":1}, "tensor_size":1, "pipeline_size":1}`))
	if _, err := c2.Topology(); err == nil {
		t.Fatal("empty clusters accepted")
	}
	c3, _ := Load(strings.NewReader(`{"clusters":[{"nic":"eth","nodes":1}], "model":{"group":9}, "tensor_size":1, "pipeline_size":1}`))
	if _, err := c3.Spec(); err == nil {
		t.Fatal("group 9 accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/config.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// MicroBatches resolves the batch shape the way Spec does, for explicit
// architectures only.
func TestModelMicroBatches(t *testing.T) {
	for _, tc := range []struct {
		m    ModelConfig
		want int
	}{
		{ModelConfig{Layers: 4, Hidden: 1024, Heads: 8, GlobalBatch: 64, MicroBatch: 2}, 32},
		{ModelConfig{Layers: 4, Hidden: 1024, Heads: 8, GlobalBatch: 64}, 64 / defaultMicroBatch},
		{ModelConfig{Group: 1, GlobalBatch: 1 << 30, MicroBatch: 1}, 0},
		{ModelConfig{Layers: 4, GlobalBatch: 64, MicroBatch: -1}, 0},
	} {
		if got := tc.m.MicroBatches(); got != tc.want {
			t.Errorf("%+v: MicroBatches() = %d, want %d", tc.m, got, tc.want)
		}
		if tc.want == 0 {
			continue
		}
		c := Config{Model: tc.m}
		spec, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if n := spec.GlobalBatch / spec.MicroBatch; n != tc.want {
			t.Errorf("%+v: Spec resolves %d micro-batches, MicroBatches %d", tc.m, n, tc.want)
		}
	}
}
