package api

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzBatchDecode hardens the /v1/plan/batch decoder: arbitrary bytes
// must never panic it, and whatever it accepts must satisfy the batch
// invariants the executor relies on (bounded item count, known ops,
// parsed configs, unique canonical keys). The seed corpus below is also
// committed under testdata/fuzz/FuzzBatchDecode so the CI fuzz-smoke
// step starts from the interesting shapes.
func FuzzBatchDecode(f *testing.F) {
	seeds := []string{
		// Well-formed heterogeneous batch.
		`{"items":[{"op":"plan","config":{"env":"Hybrid","nodes":8,"model":{"group":3},"tensor_size":1,"pipeline_size":4}},{"op":"search","config":{"env":"RoCE","nodes":4,"model":{"group":1}}}]}`,
		// Simulate item with a scenario.
		`{"items":[{"op":"simulate","config":{"env":"InfiniBand","nodes":4,"model":{"group":1},"tensor_size":1,"pipeline_size":2,"scenario":{"name":"s","events":[{"kind":"degrade_nic","at":0,"node":0,"factor":0.5}]}}}]}`,
		// Rejection shapes: empty, duplicate, unknown op, missing config,
		// unknown field, malformed.
		`{"items":[]}`,
		`{}`,
		`{"items":[{"op":"plan","config":{"env":"IB","nodes":4,"model":{"group":1}}},{"op":"plan","config":{"env":"IB","nodes":4,"model":{"group":1}}}]}`,
		`{"items":[{"op":"dance","config":{"env":"IB","nodes":4,"model":{"group":1}}}]}`,
		`{"items":[{"op":"plan"}]}`,
		`{"items":[{"op":"plan","config":{"nope":1}}]}`,
		`{"items":`,
		`[]`,
		`null`,
		// Oversized topology inside an item.
		`{"items":[{"op":"plan","config":{"env":"IB","nodes":99999,"model":{"group":1}}}]}`,
		// Well-formed batch followed by trailing data.
		`{"items":[{"op":"plan","config":{"env":"IB","nodes":4,"model":{"group":1}}}]}garbage`,
		`{"items":[{"op":"plan","config":{"env":"IB","nodes":4,"model":{"group":1}}}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := parseBatch(bytes.NewReader(data))
		if err != nil {
			if jobs != nil {
				t.Fatalf("error %v returned alongside %d jobs", err, len(jobs))
			}
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if len(jobs) == 0 || len(jobs) > maxBatchItems {
			t.Fatalf("accepted %d items outside [1, %d]", len(jobs), maxBatchItems)
		}
		// An accepted body is one object and nothing but whitespace.
		dec := json.NewDecoder(bytes.NewReader(data))
		var obj json.RawMessage
		if err := dec.Decode(&obj); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if rest := bytes.Trim(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
			t.Fatalf("accepted %q after the batch object", rest)
		}
		keys := make(map[string]bool, len(jobs))
		for i, j := range jobs {
			switch j.op {
			case "plan", "search", "simulate":
			default:
				t.Fatalf("job %d accepted unknown op %q", i, j.op)
			}
			if j.cfg == nil {
				t.Fatalf("job %d accepted without a config", i)
			}
			if j.seen.key == "" {
				t.Fatalf("job %d has no canonical key", i)
			}
			if keys[j.seen.key] {
				t.Fatalf("job %d is a duplicate the decoder let through", i)
			}
			keys[j.seen.key] = true
			// The bounds the shared daemon depends on must hold for
			// anything the decoder admits.
			if err := checkBounds(j.cfg); err != nil {
				t.Fatalf("job %d violates server bounds: %v", i, err)
			}
		}
	})
}
