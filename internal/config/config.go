// Package config defines the JSON experiment configuration consumed by
// cmd/holmes-sim, mapping directly onto the topology, model, and trainer
// options.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"holmes/internal/model"
	"holmes/internal/scenario"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// ClusterConfig describes one cluster.
type ClusterConfig struct {
	Name  string `json:"name,omitempty"`
	NIC   string `json:"nic"` // "InfiniBand" | "RoCE" | "Ethernet"
	Nodes int    `json:"nodes"`
}

// ModelConfig describes the model; either a parameter Group (1–4) or an
// explicit architecture.
type ModelConfig struct {
	Group       int `json:"group,omitempty"`
	Layers      int `json:"layers,omitempty"`
	Hidden      int `json:"hidden,omitempty"`
	Heads       int `json:"heads,omitempty"`
	Vocab       int `json:"vocab,omitempty"`
	SeqLen      int `json:"seq_len,omitempty"`
	GlobalBatch int `json:"global_batch,omitempty"`
	MicroBatch  int `json:"micro_batch,omitempty"`
}

// Config is a full experiment description.
type Config struct {
	// Env / Nodes are a shorthand for one of the paper's four standard
	// environments ("InfiniBand", "RoCE", "Ethernet", "Hybrid"); mutually
	// exclusive with Clusters.
	Env          string          `json:"env,omitempty"`
	Nodes        int             `json:"nodes,omitempty"`
	Clusters     []ClusterConfig `json:"clusters,omitempty"`
	GPUsPerNode  int             `json:"gpus_per_node,omitempty"`
	Model        ModelConfig     `json:"model"`
	TensorSize   int             `json:"tensor_size,omitempty"`
	PipelineSize int             `json:"pipeline_size,omitempty"`
	Framework    string          `json:"framework,omitempty"` // default Holmes
	// Optional component toggles (default: framework profile).
	SelfAdapting *bool    `json:"self_adapting,omitempty"`
	Overlapped   *bool    `json:"overlapped,omitempty"`
	Alpha        *float64 `json:"alpha,omitempty"`
	// Scenario scripts cluster events (degraded NICs, failed nodes,
	// background traffic) onto the simulation's fabric; nil or empty runs
	// on a pristine fabric.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Load parses a config from JSON.
func Load(r io.Reader) (*Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := c.Scenario.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile parses a config file.
func LoadFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func nicType(s string) (topology.NICType, error) {
	switch s {
	case "InfiniBand", "IB", "ib", "infiniband":
		return topology.InfiniBand, nil
	case "RoCE", "roce":
		return topology.RoCE, nil
	case "Ethernet", "ethernet", "eth":
		return topology.Ethernet, nil
	default:
		return 0, fmt.Errorf("config: unknown NIC %q", s)
	}
}

// Topology builds the configured topology.
func (c *Config) Topology() (*topology.Topology, error) {
	if c.Env != "" {
		if len(c.Clusters) > 0 {
			return nil, fmt.Errorf("config: env shorthand and clusters are mutually exclusive")
		}
		if c.GPUsPerNode != 0 && c.GPUsPerNode != topology.DefaultGPUsPerNode {
			// topology.Env builds the paper's standard nodes; silently
			// ignoring a custom GPU count would answer for different
			// hardware than the caller asked about.
			return nil, fmt.Errorf("config: env shorthand uses the standard %d-GPU nodes; use clusters to set gpus_per_node", topology.DefaultGPUsPerNode)
		}
		if c.Nodes <= 0 {
			return nil, fmt.Errorf("config: env %q needs nodes > 0", c.Env)
		}
		return topology.Env(topology.EnvName(c.Env), c.Nodes)
	}
	if len(c.Clusters) == 0 {
		return nil, fmt.Errorf("config: no clusters")
	}
	spec := topology.Spec{GPUsPerNode: c.GPUsPerNode}
	for _, cc := range c.Clusters {
		nic, err := nicType(cc.NIC)
		if err != nil {
			return nil, err
		}
		spec.Clusters = append(spec.Clusters, topology.ClusterSpec{
			Name: cc.Name, NIC: nic, Nodes: cc.Nodes,
		})
	}
	return topology.Build(spec)
}

// Spec resolves the model specification.
func (c *Config) Spec() (model.Spec, error) {
	if c.Model.Group != 0 {
		if c.Model.Group < 1 || c.Model.Group > 4 {
			return model.Spec{}, fmt.Errorf("config: parameter group %d out of range", c.Model.Group)
		}
		return model.Group(c.Model.Group).Spec, nil
	}
	s := model.Spec{
		Name:   "custom",
		Layers: c.Model.Layers, Hidden: c.Model.Hidden, Heads: c.Model.Heads,
		Vocab: c.Model.Vocab, SeqLen: c.Model.SeqLen,
		GlobalBatch: c.Model.GlobalBatch, MicroBatch: c.Model.MicroBatch,
	}
	if s.Vocab == 0 {
		s.Vocab = model.StdVocab
	}
	if s.SeqLen == 0 {
		s.SeqLen = model.StdSeqLen
	}
	if s.MicroBatch == 0 {
		s.MicroBatch = defaultMicroBatch
	}
	return s, s.Validate()
}

// defaultMicroBatch is the micro-batch size of an explicit architecture
// that names none.
const defaultMicroBatch = 4

// MicroBatches returns how many micro-batches an explicit architecture's
// global batch splits into, resolving only the two batch sizes the way
// Spec does and validating nothing; Spec checks them with the rest. A
// parameter group, whose batch shape Table 2 fixes, and a negative
// micro-batch size report 0.
func (m ModelConfig) MicroBatches() int {
	micro := m.MicroBatch
	if micro == 0 {
		micro = defaultMicroBatch
	}
	if m.Group != 0 || micro < 0 {
		return 0
	}
	return m.GlobalBatch / micro
}

// Components resolves the planner-facing pieces of the configuration:
// the topology, the model spec, the framework, and the option overrides
// (nil = framework profile defaults).
func (c *Config) Components() (*topology.Topology, model.Spec, trainer.Framework, *trainer.Options, error) {
	topo, err := c.Topology()
	if err != nil {
		return nil, model.Spec{}, "", nil, err
	}
	spec, err := c.Spec()
	if err != nil {
		return nil, model.Spec{}, "", nil, err
	}
	fw := trainer.Framework(c.Framework)
	if c.Framework == "" {
		fw = trainer.Holmes
	}
	var opt *trainer.Options
	if c.SelfAdapting != nil || c.Overlapped != nil || c.Alpha != nil {
		o := trainer.DefaultOptions(fw)
		if c.SelfAdapting != nil {
			o.SelfAdaptingPartition = *c.SelfAdapting
		}
		if c.Overlapped != nil {
			o.OverlappedOptimizer = *c.Overlapped
		}
		if c.Alpha != nil {
			o.Alpha = *c.Alpha
		}
		opt = &o
	}
	return topo, spec, fw, opt, nil
}

// TrainerConfig resolves the full trainer configuration.
func (c *Config) TrainerConfig() (trainer.Config, error) {
	topo, spec, fw, opt, err := c.Components()
	if err != nil {
		return trainer.Config{}, err
	}
	return trainer.Config{
		Topo: topo, Spec: spec,
		TensorSize: c.TensorSize, PipelineSize: c.PipelineSize,
		Framework: fw, Opt: opt,
		Scenario: c.Scenario,
	}, nil
}
