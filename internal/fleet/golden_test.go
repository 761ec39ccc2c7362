package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Golden-file regression for the fleet scheduler: the committed
// testdata/fleet12.golden.json schedule pins the canonical 12-job trace
// — placements, start times, degrees, makespan — bit for bit. The
// scheduler is fully deterministic, so any drift (a placement-policy
// tweak, a cost-model nudge, an accidental map iteration) fails here
// with a row-level diff before it can silently rewrite the fleet story.
//
// Refresh intentionally with:
//
//	go test ./internal/fleet -run Golden -update

var update = flag.Bool("update", false, "rewrite golden files with current results")

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

func loadTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := LoadFile(filepath.Join("testdata", "fleet12.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// diffPlacements renders a readable field-level diff ("" = identical).
func diffPlacements(want, got Placement) string {
	var b strings.Builder
	cmp := func(field string, w, g any) {
		if !reflect.DeepEqual(w, g) {
			fmt.Fprintf(&b, "  %-16s golden %v, got %v\n", field, w, g)
		}
	}
	cmp("JobID", want.JobID, got.JobID)
	cmp("Nodes", want.Nodes, got.Nodes)
	cmp("Degrees", want.Degrees, got.Degrees)
	cmp("Start", want.Start, got.Start)
	cmp("Finish", want.Finish, got.Finish)
	cmp("Waited", want.Waited, got.Waited)
	cmp("IterSeconds", want.IterSeconds, got.IterSeconds)
	cmp("Throughput", want.Throughput, got.Throughput)
	cmp("TFLOPS", want.TFLOPS, got.TFLOPS)
	cmp("Partition", want.Partition, got.Partition)
	cmp("Backfilled", want.Backfilled, got.Backfilled)
	cmp("Evictions", want.Evictions, got.Evictions)
	cmp("Replans", want.Replans, got.Replans)
	cmp("Recovery", want.Recovery, got.Recovery)
	cmp("Preemptions", want.Preemptions, got.Preemptions)
	cmp("MissedDeadline", want.MissedDeadline, got.MissedDeadline)
	cmp("Unplaced", want.Unplaced, got.Unplaced)
	return b.String()
}

func checkGolden(t *testing.T, name string, sched *Schedule) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		data, err := json.MarshalIndent(sched, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d jobs, makespan %.2fs)", path, len(sched.Jobs), sched.Makespan)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	var want Schedule
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden %s: %v", path, err)
	}
	if len(sched.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs, golden has %d", name, len(sched.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if diff := diffPlacements(want.Jobs[i], sched.Jobs[i]); diff != "" {
			t.Errorf("%s job %d (%s) drifted from golden:\n%s", name, i, want.Jobs[i].JobID, diff)
		}
	}
	if sched.Makespan != want.Makespan {
		t.Errorf("makespan drifted: golden %.17g, got %.17g", want.Makespan, sched.Makespan)
	}
	if sched.Utilization != want.Utilization {
		t.Errorf("utilization drifted: golden %.17g, got %.17g", want.Utilization, sched.Utilization)
	}
	if sched.ScenarioEvents != want.ScenarioEvents {
		t.Errorf("scenario events drifted: golden %d, got %d", want.ScenarioEvents, sched.ScenarioEvents)
	}
}

func TestFleet12MatchesGolden(t *testing.T) {
	sched, err := Replay(nil, loadTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// Sanity beyond the golden bytes: the canonical trace must exercise
	// the interesting machinery — an eviction from the failed node, no
	// collateral eviction, and every job eventually placed.
	evictions := 0
	for _, p := range sched.Jobs {
		if p.Unplaced != "" {
			t.Fatalf("job %s never placed: %s", p.JobID, p.Unplaced)
		}
		evictions += p.Evictions
	}
	if evictions == 0 {
		t.Fatal("canonical trace exercised no eviction; the fail_node arm is dead")
	}
	checkGolden(t, "fleet12", sched)
}
