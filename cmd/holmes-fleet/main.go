// Command holmes-fleet replays a multi-job fleet trace — many training
// jobs contending for one shared heterogeneous-NIC topology — and
// reports the resulting schedule: per-job placements, start/finish
// times, makespan, and fleet utilization. The replay is deterministic:
// the same trace produces the identical schedule on every run, with any
// worker count.
//
// Usage:
//
//	holmes-fleet -trace internal/fleet/testdata/fleet12.json
//	holmes-fleet -trace trace.json -json -out schedule.json
//	holmes-fleet -trace trace.json -policy priority   # or edf, fair, fifo
//
// A trace file names the fleet (env/nodes shorthand or explicit
// clusters), an optional scenario (fail_node / restore_node /
// degrade_nic events on the replay clock), and the jobs (id, submit,
// gpus, iterations, model, optional deadline). See EXPERIMENTS.md for
// the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"holmes/internal/engine"
	"holmes/internal/fleet"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "fleet trace JSON file (required)")
		workers   = flag.Int("workers", 0, "engine worker-pool bound (0 = CPU count)")
		asJSON    = flag.Bool("json", false, "emit the schedule as JSON instead of a table")
		outPath   = flag.String("out", "", "also write the schedule JSON to this file")
		policy    = flag.String("policy", "", "override the trace's scheduling policy: "+strings.Join(fleet.PolicyNames(), ", ")+" (default: the trace's, else "+fleet.DefaultPolicy+")")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "holmes-fleet: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	tr, err := fleet.LoadFile(*tracePath)
	if err != nil {
		fatal(err)
	}
	if *policy != "" {
		tr.Policy = *policy
	}
	if err := tr.Validate(); err != nil {
		fatal(err)
	}
	sched, err := fleet.Replay(engine.New(engine.Config{Concurrency: *workers}), tr)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(sched, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sched); err != nil {
			fatal(err)
		}
		return
	}
	render(sched)
}

func render(sched *fleet.Schedule) {
	pol := sched.Policy
	if pol == "" {
		pol = fleet.DefaultPolicy
	}
	fmt.Printf("fleet: %d node(s), %d GPU(s)  trace %q  policy %s\n", sched.Nodes, sched.GPUs, sched.Trace, pol)
	rows := append([]fleet.Placement(nil), sched.Jobs...)
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Start < rows[b].Start })
	fmt.Printf("%-8s %-14s %8s %9s %9s %7s %9s  %s\n",
		"job", "nodes", "t/p/d", "start", "finish", "waited", "samp/s", "notes")
	for _, p := range rows {
		if p.Unplaced != "" {
			fmt.Printf("%-8s %-14s %8s %9s %9s %7s %9s  UNPLACED: %s\n",
				p.JobID, "-", "-", "-", "-", "-", "-", p.Unplaced)
			continue
		}
		notes := ""
		if p.Backfilled {
			notes += "backfilled "
		}
		if p.Evictions > 0 {
			notes += fmt.Sprintf("evicted×%d (recovery %.1fx) ", p.Evictions, p.Recovery)
		}
		if p.Replans > 0 {
			notes += fmt.Sprintf("replanned×%d ", p.Replans)
		}
		if p.MissedDeadline {
			notes += "MISSED DEADLINE"
		}
		fmt.Printf("%-8s %-14s %d/%d/%-4d %9.2f %9.2f %7.2f %9.2f  %s\n",
			p.JobID, nodeList(p.Nodes), p.Degrees.Tensor, p.Degrees.Pipeline, p.Degrees.Data,
			p.Start, p.Finish, p.Waited, p.Throughput, notes)
	}
	fmt.Printf("makespan %.2fs  utilization %.1f%%  scenario events %d\n",
		sched.Makespan, 100*sched.Utilization, sched.ScenarioEvents)
}

func nodeList(nodes []int) string {
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(n)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "holmes-fleet:", err)
	os.Exit(1)
}
