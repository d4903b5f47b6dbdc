// bench_hotpath_test.go measures the simulator's per-access hot path:
// oracle next-use queries, one simulator step, and end-to-end trace
// replays under the chain-driven Belady, under RLR and under Hawkeye. The agent
// network's rows live in internal/nn/hotpath_test.go. Run
//
//	go test -run '^$' -bench Hotpath -benchmem . ./internal/nn
//
// or `make bench`, which converts five runs of both packages into
// BENCH_hotpath.json with cmd/benchjson -hotpath.
package repro

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// hotpathTraceLen is sized so one replay is milliseconds, not seconds.
const hotpathTraceLen = 200_000

var hotpath struct {
	once     sync.Once
	accesses []trace.Access
	cfg      cache.Config
	oracle   *policy.Oracle
}

// hotpathSetup builds one shared synthetic trace with a hot/warm/cold
// address mix over an LLC-like geometry, plus its oracle. The oracle is
// only ever used through the read-only chain API here, so sharing it
// across benchmarks is safe.
func hotpathSetup() (cache.Config, []trace.Access, *policy.Oracle) {
	hotpath.once.Do(func() {
		rng := xrand.New(42)
		accesses := make([]trace.Access, hotpathTraceLen)
		for i := range accesses {
			var b uint64
			switch rng.Intn(4) {
			case 0: // hot: fits in cache
				b = rng.Uint64n(4096)
			case 1: // warm: ~2× cache capacity
				b = 1<<16 + rng.Uint64n(32768)
			default: // cold stream: keeps the sets full and evicting
				b = 1<<24 + uint64(i)
			}
			accesses[i] = trace.Access{PC: rng.Uint64n(64), Addr: b * 64, Type: trace.AccessType(rng.Intn(4))}
		}
		hotpath.accesses = accesses
		hotpath.cfg = cache.Config{Sets: 1024, Ways: 16, LineSize: 64}
		hotpath.oracle = policy.NewOracle(accesses, 64)
	})
	return hotpath.cfg, hotpath.accesses, hotpath.oracle
}

// BenchmarkHotpathOracleNextUseChain drives the in-order cursor path the
// way a simulator does: non-decreasing sequence numbers, one query each.
// The cursor reset at each wrap of the trace rewrites every block's entry,
// so it runs with the timer stopped: the row times queries only.
func BenchmarkHotpathOracleNextUseChain(b *testing.B) {
	_, accesses, _ := hotpathSetup()
	o := policy.NewOracle(accesses, 64) // private: cursor queries are stateful
	n := len(accesses)
	var sink uint64
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq := i % n
		if seq == 0 {
			b.StopTimer()
			o.ResetReplay()
			b.StartTimer()
		}
		sink += o.NextUse(accesses[seq].Addr, uint64(seq))
	}
	_ = sink
}

// BenchmarkHotpathSimulatorStep measures one full simulator access (probe,
// metadata, policy, fill) under LRU.
func BenchmarkHotpathSimulatorStep(b *testing.B) {
	cfg, accesses, _ := hotpathSetup()
	sim := cachesim.New(cfg, 1, policy.MustNew("lru"))
	n := len(accesses)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Step(accesses[i%n])
	}
}

// BenchmarkHotpathBeladyReplayChain replays the whole trace under the
// chain-driven Belady.
func BenchmarkHotpathBeladyReplayChain(b *testing.B) {
	cfg, accesses, oracle := hotpathSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cachesim.RunPolicy(cfg, policy.NewBelady(oracle), accesses)
	}
	b.ReportMetric(float64(len(accesses)), "accesses/replay")
}

// BenchmarkHotpathRLRReplay replays the whole trace under RLR, the
// paper's policy: its Victim and Update run on every full-set miss.
func BenchmarkHotpathRLRReplay(b *testing.B) {
	cfg, accesses, _ := hotpathSetup()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cachesim.RunPolicy(cfg, core.New(core.Optimized()), accesses)
	}
}

// BenchmarkHotpathHawkeyeReplay replays the whole trace under Hawkeye, the
// paper's cost baseline: OPTgen runs on every access to a sampled set, and
// Init builds the predictor, the per-line state and the samplers.
func BenchmarkHotpathHawkeyeReplay(b *testing.B) {
	cfg, accesses, _ := hotpathSetup()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cachesim.RunPolicy(cfg, policy.NewHawkeye(), accesses)
	}
}
