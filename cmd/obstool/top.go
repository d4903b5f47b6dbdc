package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// The dashboard redraws every refresh and lists topRows heavy-hitter keys
// per table.
const (
	refresh = 2 * time.Second
	topRows = 8
)

// top is the live terminal view over a running rlcached: it polls /stats,
// /window, and /topkeys every refresh and redraws one dashboard frame
// (ANSI home+clear between frames; -once prints a single frame and exits,
// which is what the smoke script drives).
func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8940", "rlcached base URL")
	once := fs.Bool("once", false, "print one frame and exit")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	base := strings.TrimSuffix(*addr, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	for {
		frame, err := renderFrame(client, base, topRows)
		if err != nil {
			return err
		}
		if *once {
			fmt.Print(frame)
			return nil
		}
		fmt.Print("\033[H\033[2J" + frame)
		time.Sleep(refresh)
	}
}

// fetchJSON decodes one telemetry endpoint into v.
func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obstool: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderFrame builds one dashboard frame from the server's three JSON
// telemetry endpoints.
func renderFrame(client *http.Client, base string, rows int) (string, error) {
	var sn server.Snapshot
	var win server.WindowReport
	var keys server.TopKeysReport
	if err := fetchJSON(client, base+"/stats", &sn); err != nil {
		return "", err
	}
	if err := fetchJSON(client, base+"/window", &win); err != nil {
		return "", err
	}
	if err := fetchJSON(client, base+"/topkeys", &keys); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "rlcached top — %s  policy=%s shards=%d sets=%d ways=%d mem=%dMiB  %s\n",
		base, sn.Policy, sn.Shards, sn.Sets, sn.Ways, sn.MemoryBytes>>20,
		time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "totals  gets=%d hit=%.2f%% fills=%d evictions=%d bypasses=%d entries=%d bytes=%s\n",
		sn.Totals.Gets, sn.HitRatePct(), sn.Totals.Fills,
		sn.Totals.Evictions+sn.Totals.BudgetEvictions,
		sn.Totals.AdmitBypasses+sn.Totals.PolicyBypasses,
		sn.Totals.Entries, fmtBytes(sn.Totals.Bytes))

	if !win.Enabled {
		b.WriteString("window  (disabled: start rlcached with -window)\n")
	} else {
		g := win.Global
		fmt.Fprintf(&b, "window  %.0fs of %.0fs  qps=%.0f hit=%.2f%% evict/s=%.1f  p50=%.0fus p90=%.0fus p99=%.0fus mean=%.0fus\n",
			win.CoveredSec, win.WindowSec, g.QPS, g.HitRatePct, g.EvictionsPerSec,
			g.P50Micros, g.P90Micros, g.P99Micros, g.MeanMicros)
		b.WriteString("  shard     gets    hit%      qps    evict/s   p99us\n")
		for i, s := range win.Shards {
			fmt.Fprintf(&b, "  %5d %8d %7.2f %8.0f %10.1f %7.0f\n",
				i, s.Gets, s.HitRatePct, s.QPS, s.EvictionsPerSec, s.P99Micros)
		}
	}

	if !keys.Enabled {
		b.WriteString("topkeys (disabled: start rlcached with -topk)\n")
	} else {
		b.WriteString(heavyHitters("top miss keys", keys.Misses, rows))
		b.WriteString(heavyHitters("top evicted keys", keys.Evictions, rows))
	}
	return b.String(), nil
}

// heavyHitters renders one Space-Saving list: key, count, and the
// overestimate bound (count is exact when err is 0).
func heavyHitters(title string, entries []obs.TopKEntry, rows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(entries) == 0 {
		b.WriteString("  (none yet)\n")
		return b.String()
	}
	if len(entries) > rows {
		entries = entries[:rows]
	}
	for _, e := range entries {
		if e.Err > 0 {
			fmt.Fprintf(&b, "  %-24s %10d (±%d)\n", e.Key, e.Count, e.Err)
		} else {
			fmt.Fprintf(&b, "  %-24s %10d\n", e.Key, e.Count)
		}
	}
	return b.String()
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
