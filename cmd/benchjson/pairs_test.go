package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// readPairsTranscript returns testdata/pairs_transcript.txt: two workloads
// in the form scripts/pairs.sh prints, with hand-set values. llc-zoo has
// three seeds with the run order alternating; serve has two seeds, a
// digest mismatch at seed 2 and one failed change item.
func readPairsTranscript(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/pairs_transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestConvertPairs(t *testing.T) {
	rep, err := convertPairs(strings.NewReader(readPairsTranscript(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParentSHA != strings.Repeat("a", 40) || rep.ChangeSHA != strings.Repeat("b", 40) {
		t.Errorf("commits %s %s", rep.ParentSHA, rep.ChangeSHA)
	}
	if len(rep.Workloads) != 2 {
		t.Fatalf("%d workloads, want 2", len(rep.Workloads))
	}
	zoo, srv := rep.Workloads[0], rep.Workloads[1]
	if zoo.Workload != "llc-zoo" || zoo.Seconds != 20 || !reflect.DeepEqual(zoo.Seeds, []int{1, 2, 3}) {
		t.Errorf("llc-zoo header: %+v", zoo)
	}
	if !zoo.DigestsMatch || zoo.ParentFailed != 0 || zoo.ChangeFailed != 0 {
		t.Errorf("llc-zoo digests %v, failed %d/%d", zoo.DigestsMatch, zoo.ParentFailed, zoo.ChangeFailed)
	}
	if srv.DigestsMatch || srv.ParentFailed != 0 || srv.ChangeFailed != 1 {
		t.Errorf("serve digests %v, failed %d/%d; want false, 0/1", srv.DigestsMatch, srv.ParentFailed, srv.ChangeFailed)
	}
	byName := map[string]pairsMetric{}
	for _, m := range zoo.Metrics {
		byName[m.Name] = m
	}
	if len(byName) != len(pairsMetrics) {
		t.Fatalf("%d metrics, want %d", len(byName), len(pairsMetrics))
	}
	// item_cpu_p90_ms: parent 10, 12, 11; change 8, 9, 12 (lower wins).
	p90 := byName["item_cpu_p90_ms"]
	if want := (pairsSpread{Median: 11, Min: 10, Max: 12, IQR: 1}); p90.Parent != want {
		t.Errorf("p90 parent %+v, want %+v", p90.Parent, want)
	}
	if p90.Change.Median != 9 || p90.PairsWon != 2 || p90.MedianRatio != 0.8 || p90.Better != "lower" {
		t.Errorf("p90 change median %v, won %d, median ratio %v, better %s; want 9, 2, 0.8, lower",
			p90.Change.Median, p90.PairsWon, p90.MedianRatio, p90.Better)
	}
	if r := p90.Ratios; len(r) != 3 || r[0] != 0.8 || r[1] != 0.75 {
		t.Errorf("p90 ratios %v, want [0.8 0.75 1.09...]", r)
	}
	// ops_per_cpu_s: parent 100, 200, 300; change 110, 190, 330 (higher wins).
	if ops := byName["ops_per_cpu_s"]; ops.PairsWon != 2 || ops.Parent.Median != 200 || ops.Change.Median != 190 {
		t.Errorf("ops won %d, medians %v/%v; want 2, 200/190", ops.PairsWon, ops.Parent.Median, ops.Change.Median)
	}
	// Ties win nothing.
	if p50 := byName["item_cpu_p50_ms"]; p50.PairsWon != 0 || p50.MedianRatio != 1 {
		t.Errorf("p50 won %d, median ratio %v; want 0, 1", p50.PairsWon, p50.MedianRatio)
	}
}

func TestConvertPairsRejects(t *testing.T) {
	full := readPairsTranscript(t)
	cases := map[string]string{
		"no header":             "# run side=parent seed=1\n",
		"missing change":        full[:strings.Index(full, "# run side=change seed=1")],
		"duplicate run":         full + "# run side=parent seed=2\n",
		"other commits":         full + "# pairs parent=c change=d workload=x\n",
		"unknown side":          strings.Replace(full, "side=change seed=3", "side=other seed=3", 1),
		"stray output":          `{"correct":true}` + "\n" + full,
		"missing metrics":       strings.Replace(full, `"setup_s"`, `"setup"`, 1),
		"run of another commit": strings.Replace(full, `"commit":"`+strings.Repeat("b", 40), `"commit":"`+strings.Repeat("a", 40), 1),
		"dirty run":             strings.Replace(full, `"dirty":"false"`, `"dirty":"true"`, 1),
		"unstamped run":         strings.Replace(full, `"dirty":"false"`, `"dirty":"unknown"`, 1),
		"other run length":      strings.Replace(full, `"seconds":20`, `"seconds":2`, 1),
	}
	for name, in := range cases {
		if _, err := convertPairs(strings.NewReader(in)); err == nil {
			t.Errorf("%s: converted without error", name)
		}
	}
}
