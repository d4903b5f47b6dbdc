package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestObservabilityDeterminism is the PR's acceptance pin: running an
// experiment with metrics collection AND event tracing enabled produces a
// table byte-identical to a run with observability fully disabled. fig1
// replays LLC traces through cachesim (so the trace actually streams
// events); fig4 covers the analysis-loop grid shape.
func TestObservabilityDeterminism(t *testing.T) {
	defer sched.SetWorkers(0)
	s := tinyScale()
	for _, id := range []string{"fig1", "fig4"} {
		obs.Disable()
		obs.SetGlobalHook(nil)
		ResetCaches()
		plain, err := Run(id, s)
		if err != nil {
			t.Fatalf("%s plain: %v", id, err)
		}

		path := filepath.Join(t.TempDir(), "events.jsonl")
		sink, _, sample, err := obs.Open[obs.CacheEvent]("jsonl:" + path)
		if err != nil {
			t.Fatal(err)
		}
		obs.Enable()
		obs.SetGlobalHook(obs.NewSinkHook(sink, sample))
		sched.SetWorkers(4) // tracing must stay deterministic under the pool too
		ResetCaches()
		traced, err := Run(id, s)
		obs.Disable()
		obs.SetGlobalHook(nil)
		sched.SetWorkers(0)
		if cerr := sink.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("%s traced: %v", id, err)
		}

		if plain.String() != traced.String() {
			t.Errorf("%s: observability changed the table\n--- disabled ---\n%s\n--- enabled ---\n%s",
				id, plain.String(), traced.String())
		}

		// The trace itself must be non-empty, decodable JSONL.
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadJSONL[obs.CacheEvent](f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: trace undecodable: %v", id, err)
		}
		if id == "fig1" && len(evs) == 0 {
			t.Errorf("%s: traced run emitted no cache events", id)
		}
	}
}
