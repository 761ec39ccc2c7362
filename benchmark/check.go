package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"holmes/benchmark/gen"
)

// Wire shapes of the daemon's answers, as much of them as the checks
// read. They mirror the documented JSON, not the daemon's Go types.
type (
	wireDegrees struct {
		Tensor   int `json:"tensor"`
		Pipeline int `json:"pipeline"`
		Data     int `json:"data"`
	}
	wireReport struct {
		Throughput  float64 `json:"samples_per_sec"`
		IterSeconds float64 `json:"iteration_seconds"`
	}
	wirePlan struct {
		Degrees wireDegrees `json:"degrees"`
		Report  wireReport  `json:"report"`
		// Simulate answers only.
		Scenario       string `json:"scenario"`
		ScenarioEvents int    `json:"scenario_events"`
	}
	wireSearch struct {
		Winner        wirePlan      `json:"winner"`
		CellsExplored int           `json:"cells_explored"`
		Cells         []wireDegrees `json:"cells"`
	}
	wireBatch struct {
		Count   int `json:"count"`
		Errors  int `json:"errors"`
		Results []struct {
			Index int       `json:"index"`
			Plan  *wirePlan `json:"plan"`
			Error string    `json:"error"`
		} `json:"results"`
	}
)

func (d wireDegrees) is(g gen.Degrees) bool {
	return d.Tensor == g.T && d.Pipeline == g.P && d.Data == g.D
}

// canonicalPlan checks one plan-shaped answer against what was asked
// and renders its canonical form: degrees, then throughput and
// iteration seconds as exact float bits.
func canonicalPlan(p wirePlan, want gen.Want) (string, error) {
	r := p.Report
	if !(r.Throughput > 0) || !(r.IterSeconds > 0) || math.IsInf(r.Throughput, 0) || math.IsInf(r.IterSeconds, 0) {
		return "", fmt.Errorf("report %+v is not a positive finite measurement", r)
	}
	// Throughput is samples per second of one iteration of the global
	// batch, so their product is the batch.
	if got := r.Throughput * r.IterSeconds; math.Abs(got-float64(want.Samples)) > 1e-6*float64(want.Samples) {
		return "", fmt.Errorf("throughput × iteration = %v, want the global batch %d", got, want.Samples)
	}
	d := p.Degrees
	return fmt.Sprintf("%d/%d/%d %016x %016x", d.Tensor, d.Pipeline, d.Data,
		math.Float64bits(r.Throughput), math.Float64bits(r.IterSeconds)), nil
}

// canonical checks an answer against its request's Want and returns the
// canonical form the digests cover.
func canonical(want gen.Want, body []byte) (string, error) {
	switch want.Op {
	case "search":
		var s wireSearch
		if err := json.Unmarshal(body, &s); err != nil {
			return "", fmt.Errorf("search answer: %w", err)
		}
		if s.CellsExplored != len(want.Cells) || len(s.Cells) != len(want.Cells) {
			return "", fmt.Errorf("search explored %d cells, the request admits %d", s.CellsExplored, len(want.Cells))
		}
		in := false
		for i, c := range s.Cells {
			if !c.is(want.Cells[i]) {
				return "", fmt.Errorf("search cell %d is %+v, want %+v", i, c, want.Cells[i])
			}
			in = in || s.Winner.Degrees == c
		}
		if !in {
			return "", fmt.Errorf("search winner %+v is not a feasible cell", s.Winner.Degrees)
		}
		return canonicalPlan(s.Winner, want)
	case "plan", "simulate":
		var p wirePlan
		if err := json.Unmarshal(body, &p); err != nil {
			return "", fmt.Errorf("%s answer: %w", want.Op, err)
		}
		return planAnswer(p, want)
	case "batch":
		var b wireBatch
		if err := json.Unmarshal(body, &b); err != nil {
			return "", fmt.Errorf("batch answer: %w", err)
		}
		if b.Count != len(want.Batch) || b.Errors != 0 || len(b.Results) != len(want.Batch) {
			return "", fmt.Errorf("batch answered %d results with %d errors, sent %d items", b.Count, b.Errors, len(want.Batch))
		}
		parts := make([]string, len(b.Results))
		for i, r := range b.Results {
			if r.Index != i || r.Plan == nil {
				return "", fmt.Errorf("batch slot %d: index %d, error %q", i, r.Index, r.Error)
			}
			c, err := planAnswer(*r.Plan, want.Batch[i])
			if err != nil {
				return "", fmt.Errorf("batch slot %d: %w", i, err)
			}
			parts[i] = c
		}
		return strings.Join(parts, ";"), nil
	}
	return "", fmt.Errorf("unknown op %q", want.Op)
}

// planAnswer checks a plan or simulate answer: the degrees asked for,
// and for a simulation its storm and how many of its events fired.
func planAnswer(p wirePlan, want gen.Want) (string, error) {
	if !p.Degrees.is(want.Degrees) {
		return "", fmt.Errorf("%s answered degrees %+v, asked %+v", want.Op, p.Degrees, want.Degrees)
	}
	if want.Op == "simulate" && (p.Scenario != want.Scenario || p.ScenarioEvents < 0 || p.ScenarioEvents > want.Events) {
		return "", fmt.Errorf("simulate ran scenario %q with %d events fired, asked %q with %d events",
			p.Scenario, p.ScenarioEvents, want.Scenario, want.Events)
	}
	c, err := canonicalPlan(p, want)
	if err != nil {
		return "", fmt.Errorf("%s: %w", want.Op, err)
	}
	if want.Op == "simulate" {
		c += fmt.Sprintf(" e%d", p.ScenarioEvents)
	}
	return c, nil
}

// digest hashes canonical answers in order into a short hex string.
func digest(lines []string) string {
	h := sha256.New()
	for i, l := range lines {
		fmt.Fprintf(h, "%d %s\n", i, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// answerLog keeps every request's canonical answer by send position,
// for the run's digest.
type answerLog struct {
	lines []string
	have  []bool
}

func newAnswerLog(n int) *answerLog {
	return &answerLog{lines: make([]string, n), have: make([]bool, n)}
}

// checker returns the answer check of a closed-loop workload: every
// answer must satisfy its Want and lands in the log. Each send position
// is checked once, so concurrent clients write distinct slots, and the
// log is read only after the loop has waited for every client.
func (l *answerLog) checker() checkFunc {
	return func(i int, op gen.Op, _ int, body []byte) error {
		c, err := canonical(op.Want, body)
		if err != nil {
			return err
		}
		l.lines[i], l.have[i] = c, true
		return nil
	}
}

// digest covers the logged answers; it fails if any is missing.
func (l *answerLog) digest() (string, error) {
	for i, ok := range l.have {
		if !ok {
			return "", fmt.Errorf("answer %d is missing or failed its check", i)
		}
	}
	return digest(l.lines), nil
}
