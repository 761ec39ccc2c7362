package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testBounds = []bound{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
}

// runSet writes one synthetic untraced result file per seed into a new
// directory; latency and throughput come from the given functions of
// the seed.
func runSet(t *testing.T, latency, throughput func(seed uint64) float64, digest string) string {
	t.Helper()
	dir := t.TempDir()
	for seed := uint64(1); seed <= 10; seed++ {
		r := result{
			Workload: "cold-search", Seed: seed, Correct: true, Attempted: 100, Digest: digest,
			Metrics: map[string]metric{
				"latency_p50_ms":   {Value: latency(seed), Unit: "ms"},
				"throughput_ops_s": {Value: throughput(seed), Unit: "ops/s"},
			},
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.Workload+"-"+string(rune('a'+seed))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// jitter is a deterministic ±1% wobble per seed.
func jitter(seed uint64) float64 { return 1 + 0.01*float64(int(seed%5)-2)/2 }

func verdicts(t *testing.T, parent, change string) (map[string]string, []string) {
	t.Helper()
	p, err := loadResults(parent)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadResults(change)
	if err != nil {
		t.Fatal(err)
	}
	vs, problems := compareSets(p, c, testBounds)
	out := map[string]string{}
	for _, v := range vs {
		out[v.Metric] = v.Verdict
	}
	return out, problems
}

func TestCompareVerdicts(t *testing.T) {
	parent := runSet(t, func(s uint64) float64 { return 50 * jitter(s) }, func(s uint64) float64 { return 20 * jitter(s) }, "d1")
	for _, tc := range []struct {
		name                string
		latency, throughput func(uint64) float64
		want                map[string]string
	}{
		{"same code", func(s uint64) float64 { return 50 * jitter(s+1) }, func(s uint64) float64 { return 20 * jitter(s+1) },
			map[string]string{"latency_p50_ms": "unchanged", "throughput_ops_s": "unchanged"}},
		{"latency 20% worse", func(s uint64) float64 { return 60 * jitter(s) }, func(s uint64) float64 { return 20 * jitter(s) },
			map[string]string{"latency_p50_ms": "worse", "throughput_ops_s": "unchanged"}},
		{"throughput 30% better", func(s uint64) float64 { return 50 * jitter(s) }, func(s uint64) float64 { return 26 * jitter(s) },
			map[string]string{"latency_p50_ms": "unchanged", "throughput_ops_s": "better"}},
		{"throughput 20% worse", func(s uint64) float64 { return 50 * jitter(s) }, func(s uint64) float64 { return 16 * jitter(s) },
			map[string]string{"latency_p50_ms": "unchanged", "throughput_ops_s": "worse"}},
		{"spread wider than the bound", func(s uint64) float64 { return 50 * (0.6 + 0.1*float64(s%9)) }, func(s uint64) float64 { return 20 * jitter(s) },
			map[string]string{"latency_p50_ms": "unresolved", "throughput_ops_s": "unchanged"}},
		{"worse past the bound despite a wide spread", func(s uint64) float64 { return 65 * (0.6 + 0.1*float64(s%9)) }, func(s uint64) float64 { return 20 * jitter(s) },
			map[string]string{"latency_p50_ms": "worse", "throughput_ops_s": "unchanged"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, problems := verdicts(t, parent, runSet(t, tc.latency, tc.throughput, "d1"))
			if len(problems) > 0 {
				t.Fatalf("problems: %v", problems)
			}
			for m, want := range tc.want {
				if got[m] != want {
					t.Errorf("%s: verdict %q, want %q", m, got[m], want)
				}
			}
		})
	}
}

// A parent whose runs fall in two clusters has a quartile spread wider
// than the bound. A change that beats every parent run but moves the
// median by less than that spread is no gain.
func TestCompareSkewedParentIsNotBetter(t *testing.T) {
	flat := func(s uint64) float64 { return 20 * jitter(s) }
	skewed := func(s uint64) float64 {
		if s <= 5 {
			return 50 + 0.1*float64(s)
		}
		return 60 + float64(s)
	}
	parent := runSet(t, skewed, flat, "d1")
	got, problems := verdicts(t, parent, runSet(t, func(s uint64) float64 { return 49.9 - 0.1*float64(s) }, flat, "d1"))
	if len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}
	if got["latency_p50_ms"] != "unchanged" {
		t.Fatalf("verdict %q, want unchanged: the median moved less than the parent's quartile spread", got["latency_p50_ms"])
	}
	got, _ = verdicts(t, parent, runSet(t, func(s uint64) float64 { return 30 + 0.1*float64(s) }, flat, "d1"))
	if got["latency_p50_ms"] != "better" {
		t.Fatalf("verdict %q, want better: every change run beats every parent run by more than the spread", got["latency_p50_ms"])
	}
}

func TestCompareFlagsDigestMismatch(t *testing.T) {
	same := func(s uint64) float64 { return 10 * jitter(s) }
	_, problems := verdicts(t, runSet(t, same, same, "d1"), runSet(t, same, same, "d2"))
	if len(problems) != 10 || !strings.Contains(problems[0], "answer digest d2, parent d1") {
		t.Fatalf("problems %v, want one digest mismatch per seed", problems)
	}
}

func TestCompareDirsExitCode(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	b, err := json.Marshal(map[string]any{"end_to_end": testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bench, b, 0o644); err != nil {
		t.Fatal(err)
	}
	base := func(s uint64) float64 { return 50 * jitter(s) }
	parent := runSet(t, base, base, "d1")
	if code := compareDirs(io.Discard, bench, parent, runSet(t, base, base, "d1")); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	worse := func(s uint64) float64 { return 70 * jitter(s) }
	if code := compareDirs(io.Discard, bench, parent, runSet(t, worse, base, "d1")); code != 1 {
		t.Errorf("worse latency: exit %d, want 1", code)
	}
	if code := compareDirs(io.Discard, bench, parent, runSet(t, base, base, "d2")); code != 1 {
		t.Errorf("digest mismatch: exit %d, want 1", code)
	}
}
