package main

import (
	"fmt"
	"strings"

	"repro/internal/policy"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// ipcInstr is the number of instructions every ipc-timing item simulates,
// a quarter of them warm-up. A 4-core item runs a quarter of it per core.
const ipcInstr = 32_000

// ipcSingles are the single-core workloads and ipcMixes the 4-core mixes
// (three of workloads.MixesN(12, 4, 2021)). They are fixed, and picked for
// a similar time per item (about 30-50 ms), so that item times form
// one mode whose median and p90 hold still. With 450.soplex (about 240 ms)
// and seed-drawn mixes (16-84 ms) in the rounds, item_p50_ms fell on the
// boundary between modes and moved from 51 to 80 ms between seeds.
var (
	ipcSingles = []string{"429.mcf", "471.omnetpp", "403.gcc"}
	ipcMixes   = [][]string{
		{"459.GemsFDTD", "454.calculix", "434.zeusmp", "433.milc"},
		{"462.libquantum", "470.lbm", "470.lbm", "464.h264ref"},
		{"435.gromacs", "445.gobmk", "429.mcf", "436.cactusADM"},
	}
)

// ipcPolicy governs the LLC of every timing run.
const ipcPolicy = "rlr"

type ipcItem struct {
	key   string
	specs []workloads.Spec
}

type ipcTiming struct {
	items []ipcItem // one round: the singles, then a mix, for each mix
	ref   digests
	// instr sums the traced rounds' simulated instructions; the other
	// sums cover the reference round's measured windows, so the rates they
	// give depend only on the seed.
	instr, measured, llcAccesses, demandMisses float64
}

// setupIPC resolves the seeded single-core workloads and 4-core mixes.
func setupIPC(seed uint64, _ *setupLog) (workload, error) {
	w := &ipcTiming{ref: digests{}}
	for _, mix := range ipcMixes {
		for _, names := range append(singletons(ipcSingles), mix) {
			it, err := newIPCItem(names, seed)
			if err != nil {
				return nil, err
			}
			w.items = append(w.items, it)
		}
	}
	return w, nil
}

func singletons(names []string) [][]string {
	out := make([][]string, len(names))
	for i, n := range names {
		out[i] = []string{n}
	}
	return out
}

func newIPCItem(names []string, seed uint64) (ipcItem, error) {
	it := ipcItem{key: strings.Join(names, "+")}
	for _, n := range names {
		spec, err := seededSpec(n, seed)
		if err != nil {
			return ipcItem{}, err
		}
		it.specs = append(it.specs, spec)
	}
	return it, nil
}

func (w *ipcTiming) digest() string { return w.ref.combined() }

// round runs every item once; one item in four is a 4-core mix.
func (w *ipcTiming) round(rec *recorder, tr *tracer) error {
	first := len(w.ref) == 0
	for _, it := range w.items {
		results, d, err := w.runItem(it, tr)
		if err != nil {
			return err
		}
		rec.item(d, ipcInstr)
		if err := checkLLCStats(it.key, results); err != nil {
			rec.fail(1, err)
		}
		if err := w.ref.check(it.key, binaryDigest(results)); err != nil {
			rec.fail(1, err)
		}
		if tr != nil {
			w.instr += ipcInstr
		}
		if first {
			for _, r := range results {
				w.measured += float64(r.Instructions)
			}
			w.llcAccesses += float64(results[0].LLCStats.Accesses)
			w.demandMisses += float64(results[0].LLCStats.DemandMisses)
		}
	}
	return nil
}

// runItem builds a fresh system and generators and runs one timing item.
func (w *ipcTiming) runItem(it ipcItem, tr *tracer) ([]uarch.Result, interval, error) {
	var results []uarch.Result
	var err error
	run := func() {
		var pol policy.Policy
		if pol, err = policy.New(ipcPolicy); err != nil {
			return
		}
		if tr != nil {
			pol = newTimedPolicy(pol, tr.timer("policy.victim", policyStride), tr.timer("policy.update", policyStride))
		}
		cores := len(it.specs)
		sys := uarch.NewSystem(uarch.ScaledConfig(cores, 8), pol)
		srcs := make([]uarch.InstrSource, cores)
		for i, spec := range it.specs {
			srcs[i] = workloads.New(spec)
			if tr != nil {
				srcs[i] = &timedSource{src: srcs[i], t: tr.timer("workloads.next", sourceStride)}
			}
		}
		per := uint64(ipcInstr / cores)
		warm, meas := per/4, per-per/4
		if cores == 1 {
			results = []uarch.Result{sys.RunSingle(srcs[0], warm, meas)}
		} else {
			results = sys.RunMulti(srcs, warm, meas)
		}
	}
	if tr != nil {
		return results, tr.span("uarch", run), err
	}
	t0 := readClocks()
	run()
	return results, t0.elapsed(), err
}

// checkLLCStats checks that no access type has more LLC hits than accesses.
func checkLLCStats(key string, results []uarch.Result) error {
	for _, r := range results {
		st := r.LLCStats
		if st.Hits > st.Accesses || st.DemandHits > st.Hits {
			return fmt.Errorf("%s: %d hits (%d demand) of %d LLC accesses", key, st.Hits, st.DemandHits, st.Accesses)
		}
		for t := range st.ByType {
			if st.HitsByType[t] > st.ByType[t] {
				return fmt.Errorf("%s: access type %d has %d hits of %d accesses", key, t, st.HitsByType[t], st.ByType[t])
			}
		}
	}
	return nil
}

func (w *ipcTiming) layers(tr *tracer) map[string]metric {
	kinstr := w.instr / 1000
	self := tr.timer("uarch", 1).totalNs() - tr.sum("workloads.next", "policy.victim", "policy.update")
	return map[string]metric{
		"uarch.self_us_per_kinstr": {self / 1000 / kinstr, "us/kinstr"},
		"uarch.llc_apki":           {1000 * w.llcAccesses / w.measured, "1/kinstr"},
		"uarch.demand_mpki":        {1000 * w.demandMisses / w.measured, "1/kinstr"},
		"workloads.next_ns":        {tr.timer("workloads.next", sourceStride).meanNs(), "ns"},
		"policy.victim_ns":         {tr.timer("policy.victim", policyStride).meanNs(), "ns"},
		"policy.update_ns":         {tr.timer("policy.update", policyStride).meanNs(), "ns"},
	}
}
