// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload: it sets the workload up several times, then runs
// rounds of deterministic items for a fixed time, checks every simulated
// result against the reference digests recorded at set-up, and prints the
// metrics as one JSON object on the last line of standard output. Items
// and set-ups are timed on the process CPU clock; the wall-clock figures
// go to the metadata line.
//
//	go run . --workload llc-zoo --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run interleaves traced and untraced rounds and reports
// per-layer metrics instead of end-to-end ones. NOTES.md explains the
// workloads, the metrics and the layer map.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and every repeat must reproduce the same reference digest.
const setupRepeats = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one set-up instance of a benchmark workload.
type workload interface {
	// round runs the next round of items, recording each item's time
	// into rec. tr is nil in untraced rounds; in traced rounds the calls
	// into the program go through tr's timing wrappers.
	round(rec *recorder, tr *tracer) error
	// digest combines the reference digests of every distinct item.
	digest() string
	// layers derives the per-layer metrics from the traced rounds.
	layers(tr *tracer) map[string]metric
}

// benchDef describes one workload: how to set it up and what one op is.
type benchDef struct {
	name   string
	opUnit string
	setup  func(seed uint64, log *setupLog) (workload, error)
}

var benches = []benchDef{
	{"llc-zoo", "simulated LLC accesses", setupLLCZoo},
	{"ipc-timing", "simulated instructions", setupIPC},
	{"rl-train", "training steps", setupRLTrain},
	{"serve", "HTTP requests", setupServe},
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit; NOTES.md maps each to its workload and end-to-end metric.
var perLayer = []struct{ name, unit string }{
	{"bench.trace_overhead_pct", "%"},
	{"bench.layer_coverage_pct", "%"},
	{"setup.capture_s", "s"},
	{"setup.oracle_build_s", "s"},
	{"uarch.self_us_per_kinstr", "us/kinstr"},
	{"uarch.llc_apki", "1/kinstr"},
	{"uarch.demand_mpki", "1/kinstr"},
	{"workloads.next_ns", "ns"},
	{"policy.victim_ns", "ns"},
	{"policy.update_ns", "ns"},
	{"policy.victim_ns.lru", "ns"},
	{"policy.update_ns.lru", "ns"},
	{"policy.victim_ns.drrip", "ns"},
	{"policy.update_ns.drrip", "ns"},
	{"policy.victim_ns.ship", "ns"},
	{"policy.update_ns.ship", "ns"},
	{"policy.victim_ns.hawkeye", "ns"},
	{"policy.update_ns.hawkeye", "ns"},
	{"policy.victim_ns.rlr", "ns"},
	{"policy.update_ns.rlr", "ns"},
	{"policy.victim_ns.belady", "ns"},
	{"policy.update_ns.belady", "ns"},
	{"policy.victims_per_kaccess", "1/kaccess"},
	{"oracle.next_after_ns", "ns"},
	{"cachesim.self_ns_per_access", "ns"},
	{"rl.victim_us", "us"},
	{"rl.decisions_per_kstep", "1/kstep"},
	{"rl.batches_per_kstep", "1/kstep"},
	{"nn.forward_batch_us", "us"},
	{"nn.backward_batch_us", "us"},
	{"http.client_rtt_us", "us"},
	{"server.handler_us", "us"},
	{"http.transport_us", "us"},
	{"server.lock_wait_ns", "ns"},
	{"server.victim_ns", "ns"},
	{"server.store_ns", "ns"},
	{"server.hit_ratio", "ratio"},
	{"server.policy_evict_share", "ratio"},
	{"server.budget_evictions_per_kreq", "1/kreq"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (llc-zoo, ipc-timing, rl-train, serve)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: re-seeds the workload generators (rl-train: the agent's seed)")
	seconds := fs.Float64("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced rounds, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	opts := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupRepeats}
	res, meta, err := measure(opts, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func findBench(name string) (benchDef, error) {
	names := make([]string, len(benches))
	for i, b := range benches {
		if b.name == name {
			return b, nil
		}
		names[i] = b.name
	}
	return benchDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// measure sets the workload up, runs it for opts.seconds and returns the
// result line plus the run metadata.
func measure(opts options, stderr io.Writer) (result, map[string]any, error) {
	def, err := findBench(opts.workload)
	if err != nil {
		return result{}, nil, err
	}
	calibrateClock()

	log := &setupLog{}
	var w workload
	var setupSecs, setupWall []float64
	for i := 0; i < opts.setups; i++ {
		runtime.GC()
		t0 := readClocks()
		nw, err := def.setup(opts.seed, log)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		prev := w
		w = nw
		// The reference round records every distinct item's digest.
		ref := &recorder{}
		if err := nw.round(ref, nil); err != nil {
			return result{}, nil, fmt.Errorf("%s reference round: %w", def.name, err)
		}
		if ref.failed > 0 {
			return result{}, nil, fmt.Errorf("%s reference round: %d items failed: %v", def.name, ref.failed, ref.firstErr)
		}
		d := t0.elapsed()
		setupSecs = append(setupSecs, d.cpu.Seconds())
		setupWall = append(setupWall, d.wall.Seconds())
		if prev != nil && nw.digest() != prev.digest() {
			return result{}, nil, fmt.Errorf("%s: set-up %d digest %s differs from %s", def.name, i, nw.digest(), prev.digest())
		}
	}
	digest := w.digest()

	plain, traced := &recorder{}, &recorder{}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for r := 0; time.Now().Before(deadline) || r < 2; r++ {
		runtime.GC()
		rec, rtr := plain, (*tracer)(nil)
		if tr != nil && r%2 == 1 {
			rec, rtr = traced, tr
		}
		t0 := time.Now()
		err := w.round(rec, rtr)
		if rtr != nil {
			rtr.wall += time.Since(t0).Seconds()
		}
		if err != nil {
			return result{}, nil, fmt.Errorf("%s round %d: %w", def.name, r, err)
		}
		rec.endRound()
	}
	if w.digest() != digest {
		return result{}, nil, fmt.Errorf("%s: digest changed during the run", def.name)
	}

	failed := plain.failed + traced.failed
	for _, r := range []*recorder{plain, traced} {
		if r.firstErr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %d failed items, first: %v\n", def.name, r.failed, r.firstErr)
		}
	}
	res := result{
		Correct:   failed == 0,
		Attempted: int64(len(plain.items) + len(traced.items)),
		Failed:    failed,
	}
	if opts.trace {
		m := w.layers(tr)
		m["bench.trace_overhead_pct"] = metric{100 * (plain.opsPerSec()/traced.opsPerSec() - 1), "%"}
		m["bench.layer_coverage_pct"] = metric{100 * tr.covered / tr.wall, "%"}
		for _, phase := range []string{"capture", "oracle_build"} {
			if _, ok := m["setup."+phase+"_s"]; !ok {
				m["setup."+phase+"_s"] = metric{log.median(phase), "s"}
			}
		}
		// A layer the workload does not run reports zero.
		for _, l := range perLayer {
			if _, ok := m[l.name]; !ok {
				m[l.name] = metric{0, l.unit}
			}
		}
		res.Metrics = m
	} else {
		res.Metrics = map[string]metric{
			"setup_s":         {median(setupSecs), "s"},
			"ops_per_cpu_s":   {plain.opsPerSec(), "1/s"},
			"item_cpu_p50_ms": {1000 * percentile(plain.items, 50), "ms"},
			"item_cpu_p90_ms": {1000 * percentile(plain.items, 90), "ms"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
		}
	}
	meta := runMeta(opts, def)
	meta["digest"] = digest
	meta["items"] = len(plain.items)
	meta["item_cpu_p99_ms"] = 1000 * percentile(plain.items, 99)
	meta["rounds"] = len(plain.rounds)
	meta["traced_items"] = len(traced.items)
	meta["setup_s"] = setupSecs
	// The same quantities on the wall clock, which also counts the time a
	// hypervisor gave the CPUs to other guests.
	meta["setup_wall_s"] = setupWall
	meta["wall_ops_per_s"] = median(plain.wallRounds)
	meta["wall_item_p50_ms"] = 1000 * percentile(plain.wallItems, 50)
	meta["wall_item_p90_ms"] = 1000 * percentile(plain.wallItems, 90)
	meta["wall_item_p99_ms"] = 1000 * percentile(plain.wallItems, 99)
	return res, meta, nil
}

// clocks is one reading of the wall clock and of the process CPU clock.
type clocks struct {
	wall time.Time
	cpu  time.Duration
}

// interval is a stretch of time on both clocks.
type interval struct{ wall, cpu time.Duration }

func readClocks() clocks { return clocks{wall: time.Now(), cpu: cpuNow()} }

// elapsed is the time since c on both clocks.
func (c clocks) elapsed() interval {
	cpu := cpuNow()
	return interval{wall: time.Since(c.wall), cpu: cpu - c.cpu}
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuNow reads the process CPU clock: the CPU time of all the process's
// threads, GC workers included. On a guest with paravirtualised steal-time
// accounting it leaves out the time the hypervisor ran other guests on
// this guest's CPUs, which the wall clock counts.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// recorder collects the items of the measured rounds.
type recorder struct {
	items      []float64 // CPU seconds per item
	wallItems  []float64 // wall seconds per item
	ops        float64   // work units of the current round
	busy       interval  // time of the current round's items
	rounds     []float64 // ops per CPU second of each finished round
	wallRounds []float64 // ops per wall second of each finished round
	failed     int64     // items whose output check or request failed
	firstErr   error
}

// item records one item that did ops work units in d.
func (r *recorder) item(d interval, ops float64) {
	r.items = append(r.items, d.cpu.Seconds())
	r.wallItems = append(r.wallItems, d.wall.Seconds())
	r.ops += ops
	r.busy.cpu += d.cpu
	r.busy.wall += d.wall
}

// endRound closes the current round's throughput.
func (r *recorder) endRound() {
	if r.busy.cpu > 0 && r.busy.wall > 0 {
		r.rounds = append(r.rounds, r.ops/r.busy.cpu.Seconds())
		r.wallRounds = append(r.wallRounds, r.ops/r.busy.wall.Seconds())
	}
	r.ops, r.busy = 0, interval{}
}

// fail counts n already recorded items as failed because of err.
func (r *recorder) fail(n int64, err error) {
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// opsPerSec is the median round throughput per CPU second: every round
// does the same work, so the median sets aside rounds that a busy host
// slowed.
func (r *recorder) opsPerSec() float64 { return median(r.rounds) }

// setupLog collects named set-up phase durations across set-up repeats.
type setupLog struct{ phases map[string][]float64 }

func (l *setupLog) add(phase string, d time.Duration) {
	if l.phases == nil {
		l.phases = map[string][]float64{}
	}
	l.phases[phase] = append(l.phases[phase], d.Seconds())
}

// median reports the median per-set-up total of phase (0 when the
// workload has no such phase).
func (l *setupLog) median(phase string) float64 { return median(l.phases[phase]) }

// digests keeps the reference digest of every distinct item: the first
// result seen for a key is the reference, and every later one must match.
type digests map[string][sha256.Size]byte

func (d digests) check(key string, sum [sha256.Size]byte) error {
	ref, ok := d[key]
	if !ok {
		d[key] = sum
		return nil
	}
	if ref != sum {
		return fmt.Errorf("item %s: digest %x differs from reference %x", key, sum[:8], ref[:8])
	}
	return nil
}

// combined hashes every reference digest in key order.
func (d digests) combined() string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		sum := d[k]
		h.Write([]byte(k))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// binaryDigest hashes the binary encoding of v, which must have a fixed
// size.
func binaryDigest(v any) [sha256.Size]byte {
	h := sha256.New()
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("perfbench: digest of %T: %v", v, err))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by nearest rank (0 when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runMeta records what produced the result: the commit and dirty flag the
// binary was built from (unknown outside a git checkout), the Go version
// and the CPU count.
func runMeta(opts options, def benchDef) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   def.name,
		"op":         def.opUnit,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"commit":     commit,
		"dirty":      dirty,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}
