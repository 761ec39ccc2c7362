package core

import (
	"fmt"
	"reflect"
	"testing"

	"holmes/internal/engine"
	"holmes/internal/model"
	"holmes/internal/parallel"
	"holmes/internal/topogen"
	"holmes/internal/topology"
	"holmes/internal/trainer"
)

// classificationReps is how many times each width searches the corpus;
// race_test.go lowers it under the race detector, where CI's race soak
// repeats the whole test instead.
var classificationReps = 10

// searchCase is one search input of the classification corpus.
type searchCase struct {
	label string
	topo  *topology.Topology
	group int
}

// classificationCorpus is the Table-3 grid's four environments at its
// smallest and largest node counts for parameter group 1, plus a topogen
// sweep — searches whose waves abort cells at every width.
func classificationCorpus(t *testing.T) []searchCase {
	t.Helper()
	var out []searchCase
	for _, env := range []topology.EnvName{
		topology.EnvInfiniBand, topology.EnvRoCE, topology.EnvEthernet, topology.EnvHybrid,
	} {
		for _, nodes := range []int{4, 8} {
			topo, err := topology.Env(env, nodes)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, searchCase{fmt.Sprintf("%s/n%d/group1", env, nodes), topo, 1})
		}
	}
	shapes, err := topogen.Shapes(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		out = append(out, searchCase{sh.Label, sh.Topo, sh.Group})
	}
	return out
}

// searchAnswer is what one search returned: the winner's degrees and
// report, or the error text.
type searchAnswer struct {
	deg parallel.Degrees
	rep trainer.Report
	err string
}

// searchCorpus runs every case's joint search on one fresh engine of the
// given width and returns the answers with the engine's counters.
func searchCorpus(t *testing.T, corpus []searchCase, width int) ([]searchAnswer, engine.SearchStats) {
	t.Helper()
	eng := engine.New(engine.Config{Concurrency: width})
	answers := make([]searchAnswer, len(corpus))
	for i, c := range corpus {
		pl, err := NewPlannerOn(eng, c.topo, model.Group(c.group).Spec)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.SearchPlan()
		if err != nil {
			answers[i].err = err.Error()
			continue
		}
		answers[i].deg, answers[i].rep = plan.Degrees, plan.Report
	}
	return answers, eng.SearchStats()
}

// TestConcurrentSearchClassification: the cells of a wave share a live
// deadline, so when a cell stops depends on when its wave-mates finish —
// on the threads' timing. Its classification must not: at a fixed wave
// width, repeated searches on fresh engines return the same winners and
// reports and the same simulated, pruned and aborted counts, and at
// width 1, where a wave is one cell, the same number of events. Across
// widths the winners and reports match too: every width finds the
// oracle's winner.
func TestConcurrentSearchClassification(t *testing.T) {
	corpus := classificationCorpus(t)
	var first []searchAnswer
	for _, width := range []int{1, 2, 4} {
		var refAnswers []searchAnswer
		var ref engine.SearchStats
		for rep := 0; rep < classificationReps; rep++ {
			answers, st := searchCorpus(t, corpus, width)
			if rep == 0 {
				refAnswers, ref = answers, st
				if st.Aborted == 0 {
					t.Fatalf("width %d: no cell aborted (%+v); the corpus exercises nothing", width, st)
				}
				t.Logf("width %d: simulated %d, pruned %d, aborted %d, events %d",
					width, st.Simulated, st.Pruned, st.Aborted, st.Events)
			}
			for i, c := range corpus {
				if !reflect.DeepEqual(answers[i], refAnswers[i]) {
					t.Fatalf("width %d, repetition %d, %s: answer diverged", width, rep, c.label)
				}
			}
			if st.Simulated != ref.Simulated || st.Pruned != ref.Pruned || st.Aborted != ref.Aborted {
				t.Fatalf("width %d, repetition %d: counters %+v, first repetition %+v", width, rep, st, ref)
			}
			if width == 1 && st.Events != ref.Events {
				t.Fatalf("width 1, repetition %d: %d events, first repetition %d", rep, st.Events, ref.Events)
			}
		}
		if first == nil {
			first = refAnswers
			continue
		}
		for i, c := range corpus {
			if !reflect.DeepEqual(refAnswers[i], first[i]) {
				t.Fatalf("width %d, %s: answer differs from width 1", width, c.label)
			}
		}
	}
}
