// Command rlrsim runs the LLC-only simulator over one workload's captured
// trace, or over a tracegen file, under one or more replacement policies
// and prints each policy's hit rate. Timing (IPC) runs are the fig10
// experiment's.
//
// Usage:
//
//	rlrsim -workload 429.mcf -policy rlr                 # hit rate
//	rlrsim -workload 429.mcf -policy rlr,lru,ship        # compare policies in parallel
//	rlrsim -trace mcf.llct -policy belady                # replay a tracegen file
//	rlrsim -workload 429.mcf -policy rlr \
//	    -obs-trace jsonl:events.jsonl                    # stream cache events
//
// With a comma-separated -policy list the runs fan out over the bounded
// worker pool (internal/sched) and print in list order.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/cachesim"
	_ "repro/internal/core" // registers rlr / rlr-unopt / rlr-mc
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/uarch"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see tracegen -list)")
		traceF  = flag.String("trace", "", "chunked LLC access trace (tracegen output) to replay (overrides -workload)")
		polList = flag.String("policy", "rlr", "replacement policy, or a comma-separated list (also: belady, belady-bypass, rl, rl-int8)")
		jobs    = flag.Int("jobs", 0, "worker-pool size for multi-policy runs (0 = GOMAXPROCS)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")

		traceSpec = flag.String("obs-trace", "", "cache-event trace sink: jsonl:PATH, ring:N, or discard (optional @N sampling)")
		obsAddr   = flag.String("obs-addr", "", "serve live metrics/expvar/pprof on this address")
	)
	flag.Parse()
	sched.SetWorkers(*jobs)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stopObs, err := obs.StartCLI(*traceSpec, *obsAddr, false)
	if err != nil {
		fail(err)
	}
	defer stopObs()
	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	defer stopCPU()
	polNames := strings.Split(*polList, ",")

	var accesses []trace.Access
	if *traceF != "" {
		cf, err := trace.OpenChunked(*traceF)
		if err != nil {
			fail(err)
		}
		var frame []trace.Access
		for i := 0; i < cf.Frames(); i++ {
			if frame, err = cf.ReadFrameAt(i, frame); err != nil {
				fail(err)
			}
			accesses = append(accesses, frame...)
		}
		cf.Close()
	} else if accesses, err = experiments.CaptureLLCTrace(*name, experiments.FullScale()); err != nil {
		fail(err)
	}
	cfg := uarch.DefaultConfig(1).LLC
	// The RL policies need a trained agent; train it for one epoch on the
	// shared trace, then give each requesting row its own copy of the
	// model (rows run concurrently and the agent is stateful).
	var rlOnce sync.Once
	var rlModel []byte
	var rlErr error
	rlAgent := func() (*rl.Agent, error) {
		rlOnce.Do(func() {
			opts := rl.DefaultTrainOptions()
			opts.Epochs = 1
			trained := rl.Train(cfg, accesses, opts)
			var buf bytes.Buffer
			if rlErr = trained.SaveModel(&buf); rlErr == nil {
				rlModel = buf.Bytes()
			}
		})
		if rlErr != nil {
			return nil, rlErr
		}
		agent := rl.NewAgent(rl.DefaultTrainOptions().Agent)
		agent.Init(policy.Config{Config: cfg, NumCores: 1})
		if err := agent.LoadModel(bytes.NewReader(rlModel)); err != nil {
			return nil, err
		}
		return agent, nil
	}
	// Each policy replays the shared captured trace independently;
	// rows stream out in list order.
	err = sched.Stream(len(polNames),
		func(i int) (cachesim.Stats, error) {
			pn := strings.TrimSpace(polNames[i])
			var pol policy.Policy
			switch pn {
			case "belady":
				pol = policy.NewBelady(policy.NewOracle(accesses, cfg.LineSize))
			case "belady-bypass":
				pol = policy.NewBeladyBypass(policy.NewOracle(accesses, cfg.LineSize))
			case "rl", "rl-int8":
				agent, err := rlAgent()
				if err != nil {
					return cachesim.Stats{}, err
				}
				agent.SetTraining(false)
				var p policy.Policy = agent
				if h := obs.GlobalHook(); h != nil {
					p = policy.NewTraced(p, h)
				}
				sim := cachesim.New(cfg, 1, p)
				agent.SetSim(sim)
				if pn == "rl-int8" {
					// Frozen int8 inference: evaluation-only, gated by
					// the experiments quantgate accuracy check. Must be
					// set after cachesim.New (Init clears the copy).
					agent.SetInt8(true)
				}
				return sim.Run(accesses), nil
			default:
				var err error
				if pol, err = policy.New(pn); err != nil {
					return cachesim.Stats{}, err
				}
			}
			// With tracing on, wrap the policy so victim *decisions*
			// (with the chosen line's features) land on the stream
			// alongside the simulator's hit/miss/fill/evict events.
			if h := obs.GlobalHook(); h != nil {
				pol = policy.NewTraced(pol, h)
			}
			return cachesim.RunPolicy(cfg, pol, accesses), nil
		},
		func(i int, st cachesim.Stats) error {
			fmt.Printf("policy=%s accesses=%d hits=%d (%.2f%%) demand-hit-rate=%.2f%% evictions=%d bypasses=%d\n",
				strings.TrimSpace(polNames[i]), st.Accesses, st.Hits, st.HitRate(), st.DemandHitRate(), st.Evictions, st.Bypasses)
			return nil
		})
	if err != nil {
		fail(err)
	}
}
