package main

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
)

// zooTraceLen is the length of each captured LLC trace: long enough that
// every policy evicts tens of thousands of lines, short enough that one
// (trace, policy) replay takes tens of milliseconds.
const zooTraceLen = 50_000

// zooWorkloads are four of the eight RL training workloads (§III-B), one
// from each quarter of their capture and replay cost range.
var zooWorkloads = []string{"437.leslie3d", "429.mcf", "470.lbm", "483.xalancbmk"}

// zooPolicies are replayed on every trace; "belady" is the chain-driven
// oracle policy every other policy's hit rate must not exceed.
var zooPolicies = []string{"lru", "drrip", "ship", "hawkeye", "rlr", "belady"}

type zooTrace struct {
	name   string
	accs   []trace.Access
	oracle *policy.Oracle
}

type llcZoo struct {
	cfg    cache.Config
	traces []zooTrace
	ref    digests
	// traced-round counters
	accesses float64
}

// setupLLCZoo captures the four LLC traces through the timing simulator
// and builds their Belady oracles.
func setupLLCZoo(seed uint64, log *setupLog) (workload, error) {
	s := benchScale(zooTraceLen)
	z := &llcZoo{cfg: s.LLCConfig(), ref: digests{}}
	t0 := cpuNow()
	for _, name := range zooWorkloads {
		spec, err := seededSpec(name, seed)
		if err != nil {
			return nil, err
		}
		accs, err := captureLLC(spec, s)
		if err != nil {
			return nil, err
		}
		z.traces = append(z.traces, zooTrace{name: name, accs: accs})
	}
	log.add("capture", cpuNow()-t0)
	t0 = cpuNow()
	for i := range z.traces {
		z.traces[i].oracle = policy.NewOracle(z.traces[i].accs, z.cfg.LineSize)
	}
	log.add("oracle_build", cpuNow()-t0)
	return z, nil
}

func (z *llcZoo) digest() string { return z.ref.combined() }

// round replays every trace under every policy; one item is one replay.
func (z *llcZoo) round(rec *recorder, tr *tracer) error {
	for _, t := range z.traces {
		hits := make(map[string]uint64, len(zooPolicies))
		for _, name := range zooPolicies {
			pol, err := z.newPolicy(name, t.oracle, tr)
			if err != nil {
				return err
			}
			var st cachesim.Stats
			run := func() { st = cachesim.RunPolicy(z.cfg, pol, t.accs) }
			var d interval
			if tr == nil {
				t0 := readClocks()
				run()
				d = t0.elapsed()
			} else {
				d = tr.span("cachesim", run)
				z.accesses += float64(len(t.accs))
			}
			rec.item(d, float64(len(t.accs)))
			if err := z.ref.check(t.name+"/"+name, binaryDigest(st)); err != nil {
				rec.fail(1, err)
			}
			hits[name] = st.Hits
		}
		for name, h := range hits {
			if h > hits["belady"] {
				rec.fail(1, fmt.Errorf("%s: %s has %d hits, more than belady's %d", t.name, name, h, hits["belady"]))
			}
		}
	}
	return nil
}

// newPolicy builds a fresh policy; in traced rounds it is wrapped in
// per-policy timers and Belady reads its oracle through a timed chain.
func (z *llcZoo) newPolicy(name string, o *policy.Oracle, tr *tracer) (policy.Policy, error) {
	var chain policy.NextUseChain = o
	if tr != nil {
		chain = &timedChain{NextUseChain: o, t: tr.timer("oracle.next_after", policyStride)}
	}
	var p policy.Policy
	if name == "belady" {
		p = policy.NewBeladyChain(chain)
	} else {
		var err error
		if p, err = policy.New(name); err != nil {
			return nil, err
		}
	}
	if tr == nil {
		return p, nil
	}
	return newTimedPolicy(p,
		tr.timer("policy.victim."+name, policyStride),
		tr.timer("policy.update."+name, policyStride)), nil
}

func (z *llcZoo) layers(tr *tracer) map[string]metric {
	m := map[string]metric{}
	var victimCalls, updateCalls uint64
	var victimNs, updateNs float64
	var names []string
	for _, p := range zooPolicies {
		v, u := tr.timer("policy.victim."+p, policyStride), tr.timer("policy.update."+p, policyStride)
		m["policy.victim_ns."+p] = metric{v.meanNs(), "ns"}
		m["policy.update_ns."+p] = metric{u.meanNs(), "ns"}
		victimCalls += v.calls
		updateCalls += u.calls
		victimNs += v.totalNs()
		updateNs += u.totalNs()
		names = append(names, "policy.victim."+p, "policy.update."+p)
	}
	m["policy.victim_ns"] = metric{victimNs / float64(max(victimCalls, 1)), "ns"}
	m["policy.update_ns"] = metric{updateNs / float64(max(updateCalls, 1)), "ns"}
	m["policy.victims_per_kaccess"] = metric{1000 * float64(victimCalls) / z.accesses, "1/kaccess"}
	m["oracle.next_after_ns"] = metric{tr.timer("oracle.next_after", policyStride).meanNs(), "ns"}
	self := tr.timer("cachesim", 1).totalNs() - tr.sum(names...)
	m["cachesim.self_ns_per_access"] = metric{self / z.accesses, "ns"}
	return m
}
