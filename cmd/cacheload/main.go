// Command cacheload replays workload traces as keyed cache requests
// against rlcached-style servers and reports throughput, latency
// percentiles, and hit rate per policy as BENCH_server.json.
//
// Usage:
//
//	cacheload                                     # lru,drrip,ship,cbr on 429.mcf
//	cacheload -policies lru,rlr -workload 470.lbm -n 100000
//	cacheload -addr http://127.0.0.1:8940 -n 5000 # drive a live server
//	cacheload -qps 20000                          # throttle the replay rate
//
// Without -addr, cacheload boots one in-process server per policy on an
// ephemeral loopback port, replays the same trace against each, and folds
// the per-policy client reports plus the servers' own counters into one
// JSON report. With -addr it replays against the live server and reads
// /stats for the server-side counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	_ "repro/internal/core" // registers rlr / rlr-unopt / rlr-mc
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// result is one policy's row: the client-side replay report flattened
// next to the policy name, plus the server's own counter snapshot.
type result struct {
	Policy string `json:"policy"`
	server.ReplayReport
	Server server.Snapshot `json:"server"`
}

type report struct {
	Meta      obs.BuildInfo `json:"meta"`
	Workload  string        `json:"workload"`
	Accesses  int           `json:"accesses"`
	QPSTarget float64       `json:"qps_target"`
	Shards    int           `json:"shards"`
	Sets      int           `json:"sets"`
	Ways      int           `json:"ways"`
	MemMB     int64         `json:"mem_mb"`
	Results   []result      `json:"results"`
}

func main() {
	var (
		policies = flag.String("policies", "lru,drrip,ship,cbr", "comma-separated policy list (in-process mode)")
		workload = flag.String("workload", "429.mcf", "workload spec to derive the request stream from")
		n        = flag.Int("n", 50_000, "number of accesses to replay")
		qps      = flag.Float64("qps", 0, "target request rate (0 = full speed)")
		addr     = flag.String("addr", "", "replay against this live server instead of in-process ones")
		shards   = flag.Int("shards", 1, "in-process servers: tag shards (power of two)")
		sets     = flag.Int("sets", 1024, "in-process servers: total synthetic sets")
		ways     = flag.Int("ways", 16, "in-process servers: ways per set")
		memMB    = flag.Int64("mem-mb", 16, "in-process servers: byte budget in MiB")
		out      = flag.String("o", "BENCH_server.json", "output file ('-' for stdout)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	spec, err := workloads.ByName(*workload)
	if err != nil {
		fail(err)
	}
	accs := workloads.LLCAccesses(spec, *n)

	rep := report{
		Meta:      obs.CollectBuildInfo(),
		Workload:  *workload,
		Accesses:  len(accs),
		QPSTarget: *qps,
		Shards:    *shards,
		Sets:      *sets,
		Ways:      *ways,
		MemMB:     *memMB,
	}

	if *addr != "" {
		res, err := replayLive(*addr, accs, *qps)
		if err != nil {
			fail(err)
		}
		rep.Shards, rep.Sets, rep.Ways = res.Server.Shards, res.Server.Sets, res.Server.Ways
		rep.MemMB = res.Server.MemoryBytes >> 20
		rep.Results = append(rep.Results, res)
	} else {
		for _, pol := range strings.Split(*policies, ",") {
			pol = strings.TrimSpace(pol)
			if pol == "" {
				continue
			}
			res, err := replayInProcess(pol, accs, *qps, *shards, *sets, *ways, *memMB)
			if err != nil {
				fail(fmt.Errorf("policy %s: %w", pol, err))
			}
			fmt.Printf("cacheload: %-8s hit_rate=%6.2f%% qps=%9.0f p50=%.0fus p99=%.0fus p999=%.0fus max=%.0fus evictions=%d\n",
				pol, res.HitRatePct, res.QPS, res.P50Micros, res.P99Micros,
				res.P999Micros, res.MaxMicros,
				res.Server.Totals.Evictions+res.Server.Totals.BudgetEvictions)
			rep.Results = append(rep.Results, res)
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("cacheload: wrote %s (%d policies, %d accesses)\n", *out, len(rep.Results), len(accs))
}

// replayInProcess boots a server with the given policy on an ephemeral
// loopback port, replays the trace over real TCP, and folds the client
// report with the server's counters. The servers run with telemetry off.
func replayInProcess(pol string, accs []trace.Access, qps float64, shards, sets, ways int, memMB int64) (result, error) {
	srv, err := server.New(server.Config{
		Policy:      pol,
		Shards:      shards,
		Sets:        sets,
		Ways:        ways,
		MemoryBytes: memMB << 20,
	})
	if err != nil {
		return result{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	cr, err := server.Replay(accs, server.ReplayOptions{
		BaseURL: "http://" + ln.Addr().String(),
		QPS:     qps,
	})
	if err != nil {
		return result{}, err
	}
	return result{Policy: pol, ReplayReport: cr, Server: srv.Snapshot()}, nil
}

// replayLive replays against a running server and pulls /stats for the
// server-side counters (diffed around the run, so a warm server reports
// only this replay's activity in the client row; the snapshot itself is
// cumulative).
func replayLive(base string, accs []trace.Access, qps float64) (result, error) {
	base = strings.TrimSuffix(base, "/")
	cr, err := server.Replay(accs, server.ReplayOptions{BaseURL: base, QPS: qps})
	if err != nil {
		return result{}, err
	}
	sn, err := fetchStats(base)
	if err != nil {
		return result{}, err
	}
	return result{Policy: sn.Policy, ReplayReport: cr, Server: sn}, nil
}

func fetchStats(base string) (server.Snapshot, error) {
	var sn server.Snapshot
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return sn, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sn, fmt.Errorf("cacheload: GET /stats: status %d", resp.StatusCode)
	}
	return sn, json.NewDecoder(resp.Body).Decode(&sn)
}
