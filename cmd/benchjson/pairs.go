package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// The -pairs mode converts the transcript of scripts/pairs.sh, read on
// stdin, into BENCH_pairs.json: for each workload, both commits' perfbench
// runs at the same seeds, summarized per end-to-end metric as medians,
// ranges and interquartile ranges per side, the change/parent ratio of
// every pair and the number of pairs the change won. Several transcripts
// (one per workload) may be concatenated; all must name the same commits.
// Every run's metadata must record the commit of its side and a clean
// tree, so each number in the report is tied to the commit it measured.

// pairsMetrics are perfbench's end-to-end metrics, each with the direction
// in which it improves.
var pairsMetrics = []struct{ name, better string }{
	{"ops_per_cpu_s", "higher"},
	{"item_cpu_p50_ms", "lower"},
	{"item_cpu_p90_ms", "lower"},
	{"setup_s", "lower"},
	{"peak_rss_mb", "lower"},
}

type pairsSpread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"` // third quartile minus first
}

type pairsMetric struct {
	Name        string      `json:"name"`
	Better      string      `json:"better"`
	Parent      pairsSpread `json:"parent"`
	Change      pairsSpread `json:"change"`
	Ratios      []float64   `json:"ratios"` // change/parent, in seed order
	MedianRatio float64     `json:"median_ratio"`
	PairsWon    int         `json:"pairs_won"` // pairs in which the change is better
}

type pairsWorkload struct {
	Workload string  `json:"workload"`
	Seconds  float64 `json:"seconds"`
	Seeds    []int   `json:"seeds"`
	// DigestsMatch: at every seed both sides simulated the same results.
	DigestsMatch bool          `json:"digests_match"`
	ParentFailed int64         `json:"parent_failed"` // failed items over all runs
	ChangeFailed int64         `json:"change_failed"`
	Metrics      []pairsMetric `json:"metrics"`
}

type pairsReport struct {
	Meta      obs.BuildInfo   `json:"meta"` // the converter's build
	ParentSHA string          `json:"parent_sha"`
	ChangeSHA string          `json:"change_sha"`
	Workloads []pairsWorkload `json:"workloads"`
}

// pairsRun is one perfbench run of the transcript.
type pairsRun struct {
	side    int // 0 parent, 1 change
	digest  string
	done    bool // the result line was read
	failed  int64
	metrics map[string]float64
}

// pairsBlock is one workload's runs: [seed][side], side 0 parent, 1 change.
type pairsBlock struct {
	workload string
	seconds  float64 // perfbench's run length, from the first run's metadata
	runs     map[int]*[2]pairsRun
}

// headerFields parses "key=value" fields after a transcript header prefix.
func headerFields(rest string) map[string]string {
	kv := map[string]string{}
	for _, f := range strings.Fields(rest) {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

func convertPairs(r io.Reader) (pairsReport, error) {
	var (
		rep    pairsReport
		blocks []*pairsBlock
		cur    *pairsRun
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		fail := func(format string, args ...any) (pairsReport, error) {
			return pairsReport{}, fmt.Errorf("line %d: "+format, append([]any{lineNo}, args...)...)
		}
		switch {
		case line == "":
		case strings.HasPrefix(line, "# pairs "):
			kv := headerFields(strings.TrimPrefix(line, "# pairs "))
			if rep.ParentSHA == "" {
				rep.ParentSHA, rep.ChangeSHA = kv["parent"], kv["change"]
			}
			if kv["parent"] == "" || kv["change"] == "" || kv["workload"] == "" {
				return fail("pairs header needs parent, change and workload")
			}
			if kv["parent"] != rep.ParentSHA || kv["change"] != rep.ChangeSHA {
				return fail("commits differ from the first header's")
			}
			blocks = append(blocks, &pairsBlock{workload: kv["workload"], runs: map[int]*[2]pairsRun{}})
			cur = nil
		case strings.HasPrefix(line, "# run "):
			if len(blocks) == 0 {
				return fail("run before any pairs header")
			}
			kv := headerFields(strings.TrimPrefix(line, "# run "))
			seed, err := strconv.Atoi(kv["seed"])
			if err != nil {
				return fail("seed: %v", err)
			}
			s := 0
			switch kv["side"] {
			case "parent":
			case "change":
				s = 1
			default:
				return fail("side %q is neither parent nor change", kv["side"])
			}
			b := blocks[len(blocks)-1]
			if b.runs[seed] == nil {
				b.runs[seed] = new([2]pairsRun)
			}
			cur = &b.runs[seed][s]
			if cur.metrics != nil || cur.digest != "" {
				return fail("second %s run at seed %d", kv["side"], seed)
			}
			cur.side, cur.metrics = s, map[string]float64{}
		case strings.HasPrefix(line, "#"):
		default:
			if cur == nil {
				return fail("perfbench output outside a run")
			}
			var doc struct {
				Meta *struct {
					Digest  string  `json:"digest"`
					Commit  string  `json:"commit"`
					Dirty   string  `json:"dirty"`
					Seconds float64 `json:"seconds"`
				} `json:"meta"`
				Failed  int64 `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &doc); err != nil {
				return fail("%v", err)
			}
			if m := doc.Meta; m != nil {
				if want := [2]string{rep.ParentSHA, rep.ChangeSHA}[cur.side]; m.Commit != want || m.Dirty != "false" {
					return fail("run built from commit %q (dirty %q), want %s clean", m.Commit, m.Dirty, want)
				}
				b := blocks[len(blocks)-1]
				if b.seconds == 0 {
					b.seconds = m.Seconds
				}
				if m.Seconds != b.seconds {
					return fail("run length %v s, the block's first run had %v s", m.Seconds, b.seconds)
				}
				cur.digest = m.Digest
				continue
			}
			cur.done, cur.failed = true, doc.Failed
			for k, m := range doc.Metrics {
				cur.metrics[k] = m.Value
			}
		}
	}
	if err := sc.Err(); err != nil {
		return pairsReport{}, err
	}
	if len(blocks) == 0 {
		return pairsReport{}, fmt.Errorf("no '# pairs' header in the input")
	}
	for _, b := range blocks {
		w, err := b.summarize()
		if err != nil {
			return pairsReport{}, fmt.Errorf("%s: %w", b.workload, err)
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// summarize checks that every seed has a finished run on both sides and
// reduces the block to its per-metric summary.
func (b *pairsBlock) summarize() (pairsWorkload, error) {
	w := pairsWorkload{Workload: b.workload, Seconds: b.seconds, DigestsMatch: true}
	for seed := range b.runs {
		w.Seeds = append(w.Seeds, seed)
	}
	sort.Ints(w.Seeds)
	if len(w.Seeds) == 0 {
		return w, fmt.Errorf("no runs")
	}
	for _, seed := range w.Seeds {
		p := b.runs[seed]
		for s, name := range []string{"parent", "change"} {
			if !p[s].done {
				return w, fmt.Errorf("seed %d: no %s result", seed, name)
			}
		}
		w.DigestsMatch = w.DigestsMatch && p[0].digest != "" && p[0].digest == p[1].digest
		w.ParentFailed += p[0].failed
		w.ChangeFailed += p[1].failed
	}
	for _, m := range pairsMetrics {
		pm := pairsMetric{Name: m.name, Better: m.better}
		var par, chg []float64
		for _, seed := range w.Seeds {
			p := b.runs[seed]
			pv, ok0 := p[0].metrics[m.name]
			cv, ok1 := p[1].metrics[m.name]
			if !ok0 || !ok1 {
				return w, fmt.Errorf("seed %d: no %s", seed, m.name)
			}
			par, chg = append(par, pv), append(chg, cv)
			pm.Ratios = append(pm.Ratios, cv/pv)
			if (m.better == "lower" && cv < pv) || (m.better == "higher" && cv > pv) {
				pm.PairsWon++
			}
		}
		pm.Parent, pm.Change = spread(par), spread(chg)
		pm.MedianRatio = median(append([]float64(nil), pm.Ratios...))
		w.Metrics = append(w.Metrics, pm)
	}
	return w, nil
}

// spread summarizes vs; quartiles interpolate linearly between order
// statistics.
func spread(vs []float64) pairsSpread {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		x := f * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return pairsSpread{Median: median(s), Min: s[0], Max: s[len(s)-1], IQR: q(0.75) - q(0.25)}
}

func runPairs(outPath string) error {
	rep, err := convertPairs(os.Stdin)
	if err != nil {
		return fmt.Errorf("benchjson -pairs: %w", err)
	}
	rep.Meta = obs.CollectBuildInfo()
	return writeJSON(outPath, rep)
}
