package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The -hotpath mode converts the output of
//
//	go test -run '^$' -bench Hotpath -benchmem -count 5 . ./internal/nn
//
// read on stdin into BENCH_hotpath.json: the per-access inner loops
// (oracle query, simulator step, NN forward/backward, and the agent's
// batch-of-one forward on an agent-shaped input at hidden widths 175 and
// 24), the end-to-end chain-driven Belady replay, the RLR and Hawkeye
// replays (micro rows rlr_replay and hawkeye_replay, ns per whole
// replay), and one ipc-timing-sized timing-model run (uarch_run, ns per
// simulated instruction). Every figure is the median
// of its runs, and the speedup ratios are ratios of medians.

type hotpathMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type hotpathReport struct {
	Meta             obs.BuildInfo `json:"meta"` // machine/toolchain attribution
	Runs             int           `json:"runs"` // fewest runs behind any median
	TraceLen         int           `json:"trace_len"`
	ChainMS          float64       `json:"chain_replay_ms"` // chain-driven belady, per replay
	ChainNsPerAccess float64       `json:"chain_ns_per_access"`
	// Batched/quantized NN path: per-sample speedups over the scalar
	// reference forward (mlp_forward_ref).
	BatchSpeedup8  float64        `json:"batch_speedup_8"`
	BatchSpeedup32 float64        `json:"batch_speedup_32"`
	QuantSpeedup   float64        `json:"quant_speedup"`
	Micro          []hotpathMicro `json:"micro"`
}

// hotpathRows lists the micro rows in file order, each with its benchmark
// and the unit its ns_per_op is read from: the batched rows report time
// per sample and uarch_run per instruction, not per call.
var hotpathRows = []struct{ name, bench, unit string }{
	{"oracle_nextuse_chain", "HotpathOracleNextUseChain", "ns/op"},
	{"simulator_step", "HotpathSimulatorStep", "ns/op"},
	{"rlr_replay", "HotpathRLRReplay", "ns/op"},
	{"hawkeye_replay", "HotpathHawkeyeReplay", "ns/op"},
	{"uarch_run", "HotpathUarchRun", "ns/instr"},
	{"mlp_forward", "HotpathMLPForward", "ns/op"},
	{"mlp_backward", "HotpathMLPBackward", "ns/op"},
	{"mlp_forward_ref", "HotpathMLPForwardRef", "ns/op"},
	{"mlp_forward_batch1", "HotpathMLPForwardBatch1", "ns/sample"},
	{"mlp_forward_batch8", "HotpathMLPForwardBatch8", "ns/sample"},
	{"mlp_forward_batch32", "HotpathMLPForwardBatch32", "ns/sample"},
	{"mlp_backward_batch8", "HotpathMLPBackwardBatch8", "ns/sample"},
	{"mlp_train_step_batch32", "HotpathMLPTrainStepBatch32", "ns/op"},
	{"mlp_quant_forward", "HotpathMLPQuantForward", "ns/op"},
	{"mlp_forward_agent", "HotpathMLPForwardAgent", "ns/op"},
	{"mlp_forward_agent_h24", "HotpathMLPForwardAgentHidden24", "ns/op"},
}

// benchLine matches one result line of a `go test -bench` transcript: the
// name (less its Benchmark prefix and -GOMAXPROCS suffix), the iteration
// count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// parseBench collects every value of a transcript by benchmark and unit.
// Header, log and PASS/ok lines are skipped, so the output of several
// packages can be concatenated.
func parseBench(r io.Reader) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if runs[m[1]] == nil {
			runs[m[1]] = map[string][]float64{}
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("Benchmark%s: value %q: %v", m[1], f[i], err)
			}
			runs[m[1]][f[i+1]] = append(runs[m[1]][f[i+1]], v)
		}
	}
	return runs, sc.Err()
}

// median returns the middle value of vs (the mean of the middle two for
// an even count). It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
}

// convertHotpath builds the report (all but Meta) from a transcript. A
// benchmark or unit the report needs and the transcript lacks is an error
// that names it.
func convertHotpath(r io.Reader) (hotpathReport, error) {
	runs, err := parseBench(r)
	if err != nil {
		return hotpathReport{}, err
	}
	var rep hotpathReport
	med := func(bench, unit string) float64 {
		vs := runs[bench][unit]
		if len(vs) == 0 {
			if err == nil {
				err = fmt.Errorf("no %s from Benchmark%s in the input", unit, bench)
			}
			return 0
		}
		if rep.Runs == 0 || len(vs) < rep.Runs {
			rep.Runs = len(vs)
		}
		return median(vs)
	}

	rep.TraceLen = int(med("HotpathBeladyReplayChain", "accesses/replay"))
	chainNS := med("HotpathBeladyReplayChain", "ns/op")
	ns := map[string]float64{}
	for _, row := range hotpathRows {
		ns[row.name] = med(row.bench, row.unit)
		rep.Micro = append(rep.Micro, hotpathMicro{
			Name: row.name, NsPerOp: ns[row.name], AllocsPerOp: med(row.bench, "allocs/op"),
		})
	}
	if err != nil {
		return hotpathReport{}, err
	}
	rep.ChainMS = chainNS / 1e6
	rep.ChainNsPerAccess = chainNS / float64(rep.TraceLen)
	rep.BatchSpeedup8 = ns["mlp_forward_ref"] / ns["mlp_forward_batch8"]
	rep.BatchSpeedup32 = ns["mlp_forward_ref"] / ns["mlp_forward_batch32"]
	rep.QuantSpeedup = ns["mlp_forward_ref"] / ns["mlp_quant_forward"]
	return rep, nil
}

func runHotpath(outPath string) error {
	rep, err := convertHotpath(os.Stdin)
	if err != nil {
		return fmt.Errorf("benchjson -hotpath: %w", err)
	}
	rep.Meta = obs.CollectBuildInfo()
	return writeJSON(outPath, rep)
}
