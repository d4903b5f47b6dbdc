// Package experiments implements one runner per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). Each runner
// returns a stats.Table whose rows mirror what the paper plots; the bench
// harness (bench_test.go) and cmd/experiments regenerate them at
// configurable scales.
package experiments

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// Scale sizes an experiment run. The paper's full runs (1B instructions,
// 100 mixes) are out of a laptop-minute budget; these scales preserve the
// comparisons while bounding wall-clock time.
type Scale struct {
	Name       string
	Warmup     uint64 // single-core warmup instructions
	Measure    uint64 // single-core measured instructions
	TraceLen   int    // LLC accesses captured for the cache-only experiments
	MixCount   int    // 4-core SPEC mixes
	MixWarmup  uint64 // per-core warmup in 4-core runs
	MixMeasure uint64 // per-core measured instructions in 4-core runs
	CacheDiv   int    // cache-size divisor (1 = Table III sizes)
	RL         rl.TrainOptions
	HillRounds int // hill-climbing rounds (0 disables that part of fig3)
}

// FullScale approximates the paper's configuration at tractable cost:
// Table III cache sizes, the paper's 175-neuron agent, and instruction
// budgets sized for a single-core machine (the paper's 1B-instruction
// SimPoints and 100 mixes are reduced; see EXPERIMENTS.md).
func FullScale() Scale {
	opts := rl.DefaultTrainOptions()
	opts.Agent.TrainEvery = 16
	opts.Agent.BatchSize = 16
	opts.Epochs = 1
	return Scale{
		Name: "full", Warmup: 250_000, Measure: 1_000_000,
		TraceLen: 150_000, MixCount: 10, MixWarmup: 100_000, MixMeasure: 300_000,
		CacheDiv: 1, RL: opts, HillRounds: 2,
	}
}

// QuickScale is for interactive runs (a few minutes end to end).
func QuickScale() Scale {
	opts := rl.DefaultTrainOptions()
	opts.Agent.Hidden = 48
	opts.Agent.TrainEvery = 8
	opts.Agent.BatchSize = 16
	opts.Epochs = 1
	return Scale{
		Name: "quick", Warmup: 50_000, Measure: 200_000,
		TraceLen: 60_000, MixCount: 4, MixWarmup: 30_000, MixMeasure: 80_000,
		CacheDiv: 4, RL: opts, HillRounds: 2,
	}
}

// BenchScale is for the testing.B harness: small enough that the full
// suite completes in minutes on one core.
func BenchScale() Scale {
	opts := rl.DefaultTrainOptions()
	opts.Agent.Hidden = 24
	opts.Agent.TrainEvery = 8
	opts.Agent.BatchSize = 16
	opts.Epochs = 1
	return Scale{
		Name: "bench", Warmup: 20_000, Measure: 60_000,
		TraceLen: 25_000, MixCount: 2, MixWarmup: 10_000, MixMeasure: 30_000,
		CacheDiv: 8, RL: opts, HillRounds: 1,
	}
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID   string
	Desc string
	Run  func(s Scale) (*stats.Table, error)
}

var registry []Experiment

func register(id, desc string, run func(s Scale) (*stats.Table, error)) {
	registry = append(registry, Experiment{ID: id, Desc: desc, Run: run})
}

// paperOrder fixes the presentation order of the experiments (Go package
// init runs per file alphabetically, so registration order is not it).
var paperOrder = []string{
	"tab1", "fig10", "fig11", "fig12", "fig13", "tab4", "mcscale", "ablation",
	"agesweep", "weightsweep", "kpcp", "quantgate", "fig1", "fig3", "fig4",
	"fig5", "fig6", "fig7", "intervals", "hillclimb",
}

// List returns all experiments in the paper's presentation order.
func List() []Experiment {
	rank := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iOK := rank[out[i].ID]
		rj, jOK := rank[out[j].ID]
		switch {
		case iOK && jOK:
			return ri < rj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return out[i].ID < out[j].ID
		}
	})
	return out
}

// keepGoing makes grid runners degrade a failed (workload × policy) cell
// into a table annotation instead of failing the whole experiment — the
// -keep-going mode for long unattended sweeps.
var keepGoing atomic.Bool

// SetKeepGoing toggles keep-going mode for subsequent runs.
func SetKeepGoing(v bool) { keepGoing.Store(v) }

// FaultHook, when non-nil, is invoked at the top of every uncached timing
// run with the cell's (workload, policy) pair. Tests inject errors or
// panics here to exercise failure isolation; production runs leave it nil.
// Set it only while no experiments are running.
var FaultHook func(bench, pol string) error

// Run executes the experiment with the given id.
func Run(id string, s Scale) (*stats.Table, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run(s)
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

// sysConfig returns the (possibly scaled) Table III system config.
func (s Scale) sysConfig(cores int) uarch.Config {
	return uarch.ScaledConfig(cores, s.CacheDiv)
}

// LLCConfig returns the LLC geometry used by the cache-only experiments.
func (s Scale) LLCConfig() cache.Config { return s.sysConfig(1).LLC }

// ---- shared caches (trace capture and RL training are expensive) ----
//
// Each cache is a sharded, singleflight-backed memo (internal/sched):
// concurrent runners asking for the same (workload, scale) cell block on
// one computation instead of duplicating it, and distinct cells proceed
// in parallel instead of serializing behind one global lock.

var (
	traceMemo  = sched.NewMemo[[]trace.Access]()
	agentMemo  = sched.NewMemo[*trainedAgent]()
	ipcMemo    = sched.NewMemo[uarch.Result]()
	mixMemo    = sched.NewMemo[map[string]float64]()
	victimMemo = sched.NewMemo[analysis.VictimStats]()
	oracleMemo = sched.NewMemo[*policy.Oracle]()
)

// trainedAgent pairs a memoized agent with the mutex that serializes its
// use. Replaying an agent (rl.Evaluate, analysis.CollectVictimStats)
// mutates its per-run scratch state — the attached simulator, featurizer,
// and state buffer — so experiments sharing one memoized agent must take
// turns. Every replay re-initializes that scratch state and a
// non-training agent consumes no randomness, so the turn order cannot
// change any result.
type trainedAgent struct {
	mu    sync.Mutex
	agent *rl.Agent
}

// CaptureLLCTrace runs the timing simulator with an LRU LLC over the named
// workload and records n LLC accesses — exactly the §III-A trace
// generation step (ChampSim with LRU, ⟨PC, type, address⟩ per access).
// Results are memoized per (workload, scale); concurrent calls for the
// same key run the simulator exactly once.
func CaptureLLCTrace(name string, s Scale) ([]trace.Access, error) {
	key := fmt.Sprintf("%s/%s/%d/%d", name, s.Name, s.TraceLen, s.CacheDiv)
	return traceMemo.Do(key, func() ([]trace.Access, error) {
		return captureLLCTrace(name, s)
	})
}

// BeladyOracle returns the memoized future-knowledge oracle for the named
// workload's captured trace. Experiments needing the Belady bound share one
// O(n) construction per (workload, scale) cell.
//
// Shared oracles may be used concurrently only through the read-only chain
// API (policy.Oracle.NextAfter) — which is all that policy.NewBelady /
// NewBeladyBypass consume. Callers wanting stateful cursor queries
// (NextUse/NextUseBlock) must build a private oracle instead.
func BeladyOracle(name string, s Scale) (*policy.Oracle, error) {
	key := fmt.Sprintf("%s/%s/%d/%d", name, s.Name, s.TraceLen, s.CacheDiv)
	return oracleMemo.Do(key, func() (*policy.Oracle, error) {
		tr, err := CaptureLLCTrace(name, s)
		if err != nil {
			return nil, err
		}
		return policy.NewOracle(tr, s.LLCConfig().LineSize), nil
	})
}

// captureLLCTrace is the uncached capture run behind CaptureLLCTrace.
func captureLLCTrace(name string, s Scale) ([]trace.Access, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	sys := uarch.NewSystem(s.sysConfig(1), policy.MustNew("lru"))
	h := sys.Hierarchy()
	captured := make([]trace.Access, 0, s.TraceLen)
	h.SetLLCObserver(func(a trace.Access, hit bool) {
		captured = append(captured, a)
		if len(captured) == s.TraceLen {
			// Full: detach so the rest of the chunk runs observer-free
			// instead of re-checking the length on every LLC access.
			h.SetLLCObserver(nil)
		}
	})
	gen := workloads.New(spec)
	// Run in instruction chunks until enough LLC accesses are captured (or
	// a hard instruction cap is hit for nearly-cache-resident workloads,
	// whose short traces are fine: they exercise no replacement pressure).
	var executed uint64
	capInstr := uint64(s.TraceLen)*150 + 2_000_000
	for len(captured) < s.TraceLen && executed < capInstr {
		sys.RunSingle(gen, 0, 50_000)
		executed += 50_000
	}
	return captured, nil
}

// TrainedAgent trains (and memoizes) the RL agent for one workload's
// captured LLC trace at the given scale.
func TrainedAgent(name string, s Scale) (*rl.Agent, []trace.Access, error) {
	ta, tr, err := trainedAgentFor(name, s)
	if err != nil {
		return nil, nil, err
	}
	return ta.agent, tr, nil
}

// trainedAgentFor returns the memoized agent together with its
// serialization lock (see trainedAgent).
func trainedAgentFor(name string, s Scale) (*trainedAgent, []trace.Access, error) {
	tr, err := CaptureLLCTrace(name, s)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/%s", name, s.Name)
	ta, err := agentMemo.Do(key, func() (*trainedAgent, error) {
		return &trainedAgent{agent: rl.Train(s.LLCConfig(), tr, s.RL)}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ta, tr, nil
}

// withTrainedAgent runs fn with the benchmark's trained agent while
// holding its lock. Every in-package replay of a memoized agent goes
// through here; TrainedAgent itself stays lock-free for single-threaded
// callers (examples).
func withTrainedAgent(name string, s Scale, fn func(*rl.Agent, []trace.Access) error) error {
	ta, tr, err := trainedAgentFor(name, s)
	if err != nil {
		return err
	}
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return fn(ta.agent, tr)
}

// ResetCaches clears the memoized traces, agents, timing results, mix
// speedups, and victim statistics (tests and the bench harness use it to
// bound memory and to time cold runs; scales are part of the keys so
// correctness never depends on it).
func ResetCaches() {
	traceMemo.Reset()
	agentMemo.Reset()
	ipcMemo.Reset()
	mixMemo.Reset()
	victimMemo.Reset()
	oracleMemo.Reset()
	selectionMemo.Reset()
}

// runIPC executes one single-core timing run and returns the result.
// Results are memoized per (workload, policy, scale): several experiments
// (fig10, fig12, tab4) visit the same cell, the runs are deterministic,
// and the singleflight means concurrent grid cells needing the same
// (workload, policy) — every policy column shares its LRU baseline —
// compute it once and share it.
func runIPC(name string, pol policy.Policy, s Scale) (uarch.Result, error) {
	key := fmt.Sprintf("%s/%s/%s/%d/%d/%d", name, pol.Name(), s.Name, s.Warmup, s.Measure, s.CacheDiv)
	return ipcMemo.Do(key, func() (uarch.Result, error) {
		return runIPCUncached(name, pol, s)
	})
}

// runIPCUncached is runIPC without memoization, for policy variants that
// share a registered name (the ablation sweeps).
func runIPCUncached(name string, pol policy.Policy, s Scale) (uarch.Result, error) {
	if FaultHook != nil {
		if err := FaultHook(name, pol.Name()); err != nil {
			return uarch.Result{}, err
		}
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		return uarch.Result{}, err
	}
	sys := uarch.NewSystem(s.sysConfig(1), pol)
	wireKPC(sys, pol)
	return sys.RunSingle(workloads.New(spec), s.Warmup, s.Measure), nil
}

// wireKPC connects a KPC-R policy's promotion gate to the system's KPC-P
// prefetcher when both are present (single-core wiring; §V-B).
func wireKPC(sys *uarch.System, pol policy.Policy) {
	kr, ok := pol.(*policy.KPCR)
	if !ok {
		return
	}
	if kp := sys.Hierarchy().KPCPFor(0); kp != nil {
		kr.Confidence = kp.Confidence
	}
}
