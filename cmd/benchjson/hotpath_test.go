package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// readTranscript returns testdata/hotpath_count3.txt: a `go test -bench
// Hotpath -benchmem -count 3 . ./internal/nn` transcript (two pkg blocks)
// with hand-set values whose medians and ratios are round numbers.
func readTranscript(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/hotpath_count3.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestConvertHotpath(t *testing.T) {
	rep, err := convertHotpath(strings.NewReader(readTranscript(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 || rep.TraceLen != 200000 {
		t.Errorf("runs %d, trace_len %d; want 3, 200000", rep.Runs, rep.TraceLen)
	}
	// Chain replay: median of 20, 18 and 19 ms over 200k accesses.
	if rep.ChainMS != 19 || rep.ChainNsPerAccess != 95 {
		t.Errorf("chain %v ms, %v ns/access; want 19, 95", rep.ChainMS, rep.ChainNsPerAccess)
	}
	// The batched rows read ns/sample, the others ns/op. mlp_backward's
	// allocs/op runs are 14, 0, 0.
	want := []hotpathMicro{
		{"oracle_nextuse_chain", 120, 0},
		{"simulator_step", 115, 0},
		{"rlr_replay", 22000000, 1031},
		{"hawkeye_replay", 26000000, 120},
		{"mlp_forward", 15000, 0},
		{"mlp_backward", 39000, 0},
		{"mlp_forward_ref", 100000, 0},
		{"mlp_forward_batch1", 15000, 0},
		{"mlp_forward_batch8", 10000, 0},
		{"mlp_forward_batch32", 8000, 0},
		{"mlp_backward_batch8", 12500, 0},
		{"mlp_train_step_batch32", 900000, 0},
		{"mlp_quant_forward", 5000, 0},
		{"mlp_forward_agent", 4000, 0},
		{"mlp_forward_agent_h24", 800, 0},
	}
	if len(rep.Micro) != len(want) {
		t.Fatalf("%d micro rows, want %d", len(rep.Micro), len(want))
	}
	for i, w := range want {
		if rep.Micro[i] != w {
			t.Errorf("micro[%d] = %+v, want %+v", i, rep.Micro[i], w)
		}
	}
	// Ratios of the medians: ref 100000 over batch8 10000, batch32 8000
	// and int8 5000.
	if rep.BatchSpeedup8 != 10 || rep.BatchSpeedup32 != 12.5 || rep.QuantSpeedup != 20 {
		t.Errorf("speedups %v, %v, %v; want 10, 12.5, 20",
			rep.BatchSpeedup8, rep.BatchSpeedup32, rep.QuantSpeedup)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestConvertHotpathNamesWhatIsMissing(t *testing.T) {
	full := readTranscript(t)
	for _, tc := range []struct {
		name, drop, want string
	}{
		{"benchmark", `(?m)^BenchmarkHotpathMLPQuantForward-2 .*\n`, "BenchmarkHotpathMLPQuantForward"},
		{"unit", `\s+\d+ accesses/replay`, "accesses/replay"},
		{"benchmem", `\s+\d+ B/op\s+\d+ allocs/op`, "allocs/op"},
	} {
		in := regexp.MustCompile(tc.drop).ReplaceAllString(full, "")
		if in == full {
			t.Fatalf("%s: pattern %q removed nothing", tc.name, tc.drop)
		}
		_, err := convertHotpath(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
