// Command obstool inspects the observability layer's artifacts and live
// endpoints: run manifests (rltrain -manifest), cache-event traces
// (-obs-trace jsonl sinks), and a running rlcached's telemetry.
//
// Usage:
//
//	obstool validate run.jsonl          # strict-parse a manifest, print record counts
//	obstool validate -events ev.jsonl   # same for a cache-event trace
//	obstool curve run.jsonl             # ASCII training loss curve per epoch
//	obstool curve -metric hit_rate run.jsonl
//	obstool top -addr http://127.0.0.1:8940          # live server dashboard
//	obstool top -addr http://127.0.0.1:8940 -once    # one frame (scripts/CI)
//
// validate exits non-zero on a malformed or empty file — the `make
// obs-smoke` CI gate. curve renders the per-epoch trajectory of one
// manifest metric (loss, mean_reward, hit_rate, weight_norm) as a bar
// chart, the quick look at "is training converging" that otherwise needs a
// plotting stack. top polls /stats, /window, and /topkeys and redraws a
// terminal dashboard every 2 s: rolling hit rate, QPS, eviction
// rate, latency quantiles per shard, and the heavy-hitter keys.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "validate":
		err = validate(args)
	case "curve":
		err = curve(args)
	case "top":
		err = top(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: obstool validate [-events] FILE.jsonl | obstool curve [-metric M] FILE.jsonl | obstool top [-addr URL] [-once]")
	os.Exit(2)
}

// validate strict-parses a manifest (or, with -events, a cache-event
// trace) and prints per-kind record counts. Empty or malformed files fail.
func validate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	events := fs.Bool("events", false, "validate a cache-event trace instead of a run manifest")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	counts := map[string]int{}
	total := 0
	if *events {
		evs, err := obs.ReadJSONL[obs.CacheEvent](f)
		if err != nil {
			return err
		}
		for _, e := range evs {
			counts[e.Kind.String()]++
		}
		total = len(evs)
	} else {
		recs, err := obs.ReadJSONL[obs.ManifestRecord](f)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if r.Kind == "" {
				return fmt.Errorf("%s: record without a kind", fs.Arg(0))
			}
			counts[r.Kind]++
		}
		total = len(recs)
	}
	if total == 0 {
		return fmt.Errorf("%s: no records", fs.Arg(0))
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%s: %d records OK\n", fs.Arg(0), total)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, counts[k])
	}
	return nil
}

// curve renders one manifest metric's per-epoch trajectory as an ASCII bar
// chart.
func curve(args []string) error {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	metric := fs.String("metric", "loss", "epoch metric: loss, mean_reward, hit_rate, or weight_norm")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadJSONL[obs.ManifestRecord](f)
	if err != nil {
		return err
	}

	tbl := &stats.Table{
		Title:  fmt.Sprintf("%s per epoch (%s)", *metric, fs.Arg(0)),
		Header: []string{"Epoch", *metric},
	}
	for _, r := range recs {
		if r.Kind != obs.RecEpoch {
			continue
		}
		var v float64
		switch *metric {
		case "loss":
			v = r.Loss
		case "mean_reward":
			v = r.MeanReward
		case "hit_rate":
			v = r.HitRate
		case "weight_norm":
			v = r.WeightNorm
		default:
			return fmt.Errorf("unknown metric %q (loss, mean_reward, hit_rate, weight_norm)", *metric)
		}
		tbl.AddRow(fmt.Sprintf("%d", r.Epoch), fmt.Sprintf("%.5f", v))
	}
	if len(tbl.Rows) == 0 {
		return fmt.Errorf("%s: no epoch records (train with -manifest to produce them)", fs.Arg(0))
	}
	fmt.Println(viz.BarChart(tbl, 1))
	return nil
}
