package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// The workload seed reaches the program only through the generated inputs.
// It re-seeds every synthetic workload generator: each workload keeps its
// phases, footprints and access patterns, and so its cost, while its
// addresses, PCs and random draws change. Choosing workloads by seed
// instead moved ops_per_s by ±10% between seeds (see NOTES.md).

// seededSpec returns the named workload with its generator seed mixed with
// the workload seed.
func seededSpec(name string, seed uint64) (workloads.Spec, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return workloads.Spec{}, err
	}
	spec.Seed ^= xrand.Mix64(seed)
	return spec, nil
}

// benchScale is the bench-scale experiment configuration with n-access
// captured traces.
func benchScale(n int) experiments.Scale {
	s := experiments.BenchScale()
	s.TraceLen = n
	return s
}

// captureLLC is experiments.CaptureLLCTrace for a seeded workload spec,
// which that function cannot take: a single-core LRU timing run at the
// scale's cache sizes that records the first s.TraceLen LLC accesses.
func captureLLC(spec workloads.Spec, s experiments.Scale) ([]trace.Access, error) {
	sys := uarch.NewSystem(uarch.ScaledConfig(1, s.CacheDiv), policy.MustNew("lru"))
	h := sys.Hierarchy()
	captured := make([]trace.Access, 0, s.TraceLen)
	h.SetLLCObserver(func(a trace.Access, _ bool) {
		if len(captured) < s.TraceLen {
			captured = append(captured, a)
		}
	})
	gen := workloads.New(spec)
	for executed := uint64(0); len(captured) < s.TraceLen; executed += 50_000 {
		if executed > uint64(s.TraceLen)*150+2_000_000 {
			return nil, fmt.Errorf("%s: %d LLC accesses after %d instructions, want %d", spec.Name, len(captured), executed, s.TraceLen)
		}
		sys.RunSingle(gen, 0, 50_000)
	}
	return captured, nil
}
