package experiments

import (
	"reflect"
	"sync"
	"testing"

	"holmes/internal/engine"
)

func suite(workers int, oracle bool) Suite {
	return NewSuite(engine.New(engine.Config{Concurrency: workers, FullRecompute: oracle}))
}

// The concurrent runner must produce rows in the same order with the same
// bits as a sequential run: cells are independent simulations, and the
// pool only changes which goroutine executes them.
func TestRowsDeterministicUnderConcurrency(t *testing.T) {
	for _, id := range []string{"table1", "fig5", "fig6"} {
		seq, err := suite(1, false).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			conc, err := suite(8, false).Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, conc) {
				t.Fatalf("%s: concurrent rows differ from sequential (trial %d):\nseq  %+v\nconc %+v",
					id, trial, seq, conc)
			}
		}
	}
}

// Every experiment row produced by the fast path (incremental rebalancer,
// concurrent runner) must be bit-identical to the sequential
// full-recompute oracle, for every experiment holmes-bench prints (-short
// checks table1 alone). Exact equality is achievable
// because rates drain lazily (see netsim.Fabric.reschedule): both modes
// compute the same unique max-min schedule through the same arithmetic.
func TestOracleEquivalence(t *testing.T) {
	grids := Names
	if testing.Short() {
		grids = grids[:1]
	}
	for _, id := range grids {
		fast, err := suite(8, false).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := suite(1, true).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(oracle) {
			t.Fatalf("%s: row count %d vs oracle %d", id, len(fast), len(oracle))
		}
		for i := range fast {
			if fast[i] != oracle[i] {
				t.Fatalf("%s row %d (%s): fast {%.17g TFLOPS, %.17g samples/s, %.17g ms} vs oracle {%.17g, %.17g, %.17g}",
					id, i, fast[i].Label, fast[i].TFLOPS, fast[i].Throughput, fast[i].ReduceScatterMs,
					oracle[i].TFLOPS, oracle[i].Throughput, oracle[i].ReduceScatterMs)
			}
		}
	}
}

// Two engines with different FullRecompute / concurrency settings must be
// able to run the same grid CONCURRENTLY and each produce rows
// bit-identical to its own sequential reference — the proof that no
// package-level mutable state couples independent tenants (before the
// engine refactor, one caller flipping experiments.FullRecompute mid-run
// corrupted the other's arm). Run under -race in CI.
func TestIndependentEnginesRunConcurrently(t *testing.T) {
	id := "table3"
	if testing.Short() {
		id = "table1"
	}
	// Sequential references for both arms. Oracle equivalence (above)
	// makes them bit-identical to each other too, but each arm is checked
	// against its own reference to keep this test's claim self-contained.
	refFast, err := suite(1, false).Run(id)
	if err != nil {
		t.Fatal(err)
	}
	refOracle, err := suite(1, true).Run(id)
	if err != nil {
		t.Fatal(err)
	}

	arms := []struct {
		name string
		s    Suite
		ref  []Row
	}{
		{"fast/8workers", suite(8, false), refFast},
		{"oracle/2workers", suite(2, true), refOracle},
	}
	var wg sync.WaitGroup
	results := make([][]Row, len(arms))
	errs := make([]error, len(arms))
	for i, arm := range arms {
		i, arm := i, arm
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = arm.s.Run(id)
		}()
	}
	wg.Wait()
	for i, arm := range arms {
		if errs[i] != nil {
			t.Fatalf("%s: %v", arm.name, errs[i])
		}
		if !reflect.DeepEqual(results[i], arm.ref) {
			t.Fatalf("%s: concurrent rows differ from its sequential reference", arm.name)
		}
	}
}

// Exercise the worker pool with more workers than cells and again with
// fewer; combined with -race in CI this is the pool's race test.
func TestWorkerPoolBounds(t *testing.T) {
	for _, workers := range []int{1, 2, 64} {
		rows, err := suite(workers, false).Table4()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("workers=%d: got %d rows, want 5", workers, len(rows))
		}
	}
}
