package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range specs {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny is a run small enough for a unit test: a few thousand rows, one
// set-up and one restart.
func tiny(workload string, trace bool) *config {
	return &config{workload: workload, seed: 7, seconds: 1, trace: trace,
		scale: 0.002, setups: 1, restarts: 1}
}

// TestTinyRuns runs every workload untraced and traced at a tiny scale:
// every check passes and exactly the declared metrics are printed, each
// with its declared unit.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range specs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, info, err := run(tiny(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct {
				t.Fatalf("%s trace=%v: checks failed: %s", name, trace, info)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", name, trace, m, got.Unit, unit)
				}
			}
			if !trace {
				for _, m := range []string{"setup_s", "tps", "txn_p50_ms", "txn_p90_ms", "recovery_s", "heap_mib"} {
					if res.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// TestBrokenStateFailsCheck corrupts each workload's state after its timed
// phase (oltp-write drops one acknowledged row) and expects the run to
// report incorrect output.
func TestBrokenStateFailsCheck(t *testing.T) {
	for name := range specs {
		cfg := tiny(name, false)
		cfg.breakCheck = true
		res, info, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: corrupted state passed the checks: %s", name, info)
		}
	}
}
