package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run passes its output checks, reports exactly the metrics
// BENCHMARK.json lists with their units, and reproduces the same digest.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(benches))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			var digest string
			seconds := 2.0
			if testing.Short() {
				seconds = 0.2
			}
			for _, traced := range []bool{false, true} {
				opts := options{workload: wl.Name, seed: defaultSeed, seconds: seconds, trace: traced, setups: 1}
				res, meta, err := measure(opts, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				d := meta["digest"].(string)
				if digest != "" && d != digest {
					t.Errorf("digest %s differs from the first run's %s", d, digest)
				}
				digest = d
			}
		})
	}
}
