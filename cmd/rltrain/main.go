// Command rltrain runs the §III pipeline end to end for one workload:
// capture an LLC trace, train the RL agent against the Belady reward,
// report the learned policy's hit rate versus LRU and Belady, print the
// Figure 3 weight heat map and the Figure 5–7 victim statistics, and
// optionally save the trained model.
//
// Long runs can checkpoint: with -checkpoint the trainer periodically
// snapshots its complete state (and saves on SIGINT/SIGTERM), and with
// -resume a restarted run continues from the snapshot, producing results
// byte-identical to an uninterrupted run.
//
// Long runs can also be observed while in flight: -manifest streams
// per-epoch telemetry (loss, mean reward, hit rate, weight norm) plus
// checkpoint save/resume events as JSONL, -obs-trace streams per-access cache
// events to a pluggable sink, -obs-addr serves live metrics/expvar/pprof
// over HTTP, and a rate-limited one-line progress log keeps headless
// terminals informed.
//
// Usage:
//
//	rltrain -workload 429.mcf -accesses 100000 -epochs 2 -out mcf.model
//	rltrain -workload 429.mcf -checkpoint mcf.ckpt -checkpoint-every 50000
//	rltrain -workload 429.mcf -checkpoint mcf.ckpt -resume
//	rltrain -workload 429.mcf -manifest run.jsonl -obs-addr localhost:6060
//	rltrain -workload 429.mcf -obs-trace jsonl:events.jsonl@100
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/profiling"
	"repro/internal/rl"
	"repro/internal/trace"
)

// ckptKind/ckptVersion identify rltrain's checkpoint payload: a run
// fingerprint followed by the trainer's serialized state. Version 3 stores
// one network and replay transitions without next states; version 2 also
// stored a target network and each transition's next state; version 1
// stored the eager age and recency counters in place of cache lines' age
// and recency stamps and each set's promotion clock.
const (
	ckptKind    = "rltrain"
	ckptVersion = 3
)

// saveCheckpoint atomically writes the trainer snapshot with the run
// fingerprint prepended, so a resume against different flags is rejected
// instead of silently producing a diverged run.
func saveCheckpoint(path, fingerprint string, t *rl.Trainer) error {
	return checkpoint.Save(path, ckptKind, ckptVersion, func(w io.Writer) error {
		if err := binary.Write(w, binary.LittleEndian, uint64(len(fingerprint))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, fingerprint); err != nil {
			return err
		}
		return t.SaveState(w)
	})
}

// loadCheckpoint restores a snapshot written by saveCheckpoint into t.
func loadCheckpoint(path, fingerprint string, t *rl.Trainer) error {
	return checkpoint.Load(path, ckptKind, ckptVersion, func(r io.Reader) error {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return err
		}
		if n > 4096 {
			return fmt.Errorf("implausible fingerprint length %d", n)
		}
		got := make([]byte, n)
		if _, err := io.ReadFull(r, got); err != nil {
			return err
		}
		if string(got) != fingerprint {
			return fmt.Errorf("checkpoint is for run %q, this run is %q (flags must match)", got, fingerprint)
		}
		return t.LoadState(r)
	})
}

// The flags are registered at package init, so tests can look them up in
// flag.CommandLine.
var (
	name     = flag.String("workload", "429.mcf", "workload name")
	accesses = flag.Int("accesses", 100_000, "LLC accesses to train on")
	epochs   = flag.Int("epochs", 1, "training passes over the trace")
	out      = flag.String("out", "", "write the trained model to this file")
	ckpt     = flag.String("checkpoint", "", "checkpoint file for crash-safe training")
	every    = flag.Int("checkpoint-every", 50_000, "steps between periodic checkpoints")
	resume   = flag.Bool("resume", false, "resume from -checkpoint if it exists")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	int8Eval = flag.Bool("int8-eval", false, "also evaluate the trained policy with frozen int8 inference and report the delta")

	manifestP = flag.String("manifest", "", "write a JSONL run manifest (per-epoch telemetry + checkpoint events)")
	traceSpec = flag.String("obs-trace", "", "cache-event trace sink: jsonl:PATH, ring:N, or discard (optional @N sampling)")
	obsAddr   = flag.String("obs-addr", "", "serve live metrics/expvar/pprof on this address (e.g. localhost:6060)")
	progEvery = flag.Duration("progress", 30*time.Second, "period of the one-line progress log (0 disables)")
)

func main() {
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *resume && *ckpt == "" {
		fail(errors.New("-resume requires -checkpoint"))
	}

	// Observability: metrics (also for the manifest's telemetry), the
	// event trace and the live endpoint, before any simulator is built.
	stopObs, err := obs.StartCLI(*traceSpec, *obsAddr, *manifestP != "")
	if err != nil {
		fail(err)
	}
	defer stopObs()
	manifest, err := obs.OpenManifest(*manifestP)
	if err != nil {
		fail(err)
	}
	defer manifest.Close()
	stopCPU, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	defer stopCPU()

	s := experiments.FullScale()
	s.TraceLen = *accesses
	tr, err := experiments.CaptureLLCTrace(*name, s)
	if err != nil {
		fail(err)
	}
	cfg := s.LLCConfig()
	opts := rl.DefaultTrainOptions()
	opts.Epochs = *epochs
	fmt.Printf("captured %d LLC accesses for %s; training (%d epochs, %d hidden)...\n",
		len(tr), *name, *epochs, opts.Agent.Hidden)

	// The fingerprint pins everything that shapes the run: workload and
	// trace length (the trace is re-captured deterministically), training
	// shape, and cache geometry.
	fingerprint := fmt.Sprintf("%s/%d/%d/%d/%dx%dx%d",
		*name, len(tr), *epochs, opts.Agent.Hidden, cfg.Sets, cfg.Ways, cfg.LineSize)

	buildInfo := obs.CollectBuildInfo()
	manifest.Write(obs.ManifestRecord{
		Kind:        obs.RecRunStart,
		Fingerprint: fingerprint,
		Workload:    *name,
		Accesses:    len(tr),
		Epochs:      *epochs,
		Meta:        &buildInfo,
	})

	trainer := rl.NewTrainer(cfg, tr, opts)
	trainer.SetEpochObserver(func(e rl.EpochStats) {
		slog.Info("epoch complete", "epoch", e.Epoch, "loss", e.Loss,
			"mean_reward", e.MeanReward, "hit_rate", e.HitRate, "weight_norm", e.WeightNorm)
		if err := manifest.Write(obs.ManifestRecord{
			Kind: obs.RecEpoch, Epoch: e.Epoch, Steps: e.Steps,
			Loss: e.Loss, MeanReward: e.MeanReward, Epsilon: e.Epsilon,
			HitRate: e.HitRate, WeightNorm: e.WeightNorm,
			Decisions: e.Decisions, Batches: e.Batches,
		}); err != nil {
			slog.Warn("run manifest write failed", "err", err)
		}
	})
	if *resume {
		switch err := loadCheckpoint(*ckpt, fingerprint, trainer); {
		case err == nil:
			slog.Info("resumed from checkpoint", "path", *ckpt,
				"step", trainer.TotalSteps(), "epoch", trainer.Epoch(), "cursor", trainer.Cursor())
			manifest.Write(obs.ManifestRecord{
				Kind: obs.RecResume, Path: *ckpt,
				Epoch: trainer.Epoch(), Steps: trainer.TotalSteps(),
			})
		case errors.Is(err, fs.ErrNotExist):
			fmt.Printf("no checkpoint at %s; starting fresh\n", *ckpt)
		default:
			fail(fmt.Errorf("resuming from %s: %w", *ckpt, err))
		}
	}

	// Train step by step so we can checkpoint between steps and save on
	// SIGINT/SIGTERM instead of losing the run.
	sigC := make(chan os.Signal, 1)
	if *ckpt != "" {
		signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	}
	progress := obs.NewProgress(*progEvery)
	totalSteps := uint64(*epochs) * uint64(len(tr))
	interrupted := false
	for !trainer.Done() && !interrupted {
		trainer.Step()
		progress.Tick("training", "step", trainer.TotalSteps(), "of", totalSteps,
			"epoch", trainer.Epoch(), "pct", fmt.Sprintf("%.1f", 100*float64(trainer.TotalSteps())/float64(max(totalSteps, 1))))
		if *ckpt != "" && *every > 0 && trainer.TotalSteps()%uint64(*every) == 0 {
			if err := saveCheckpoint(*ckpt, fingerprint, trainer); err != nil {
				fail(fmt.Errorf("checkpointing: %w", err))
			}
			slog.Info("checkpoint saved", "path", *ckpt, "step", trainer.TotalSteps())
			manifest.Write(obs.ManifestRecord{
				Kind: obs.RecCheckpointSave, Path: *ckpt,
				Epoch: trainer.Epoch(), Steps: trainer.TotalSteps(),
			})
		}
		select {
		case <-sigC:
			interrupted = true
		default:
		}
	}
	if interrupted {
		if err := saveCheckpoint(*ckpt, fingerprint, trainer); err != nil {
			fail(fmt.Errorf("saving interrupt checkpoint: %w", err))
		}
		slog.Info("checkpoint saved on interrupt", "path", *ckpt, "step", trainer.TotalSteps())
		manifest.Write(obs.ManifestRecord{
			Kind: obs.RecCheckpointSave, Path: *ckpt,
			Epoch: trainer.Epoch(), Steps: trainer.TotalSteps(),
		})
		manifest.Write(obs.ManifestRecord{Kind: obs.RecRunEnd, Steps: trainer.TotalSteps(), Err: "interrupted"})
		fmt.Fprintf(os.Stderr, "\ninterrupted at step %d; state saved to %s — rerun with -resume to continue\n",
			trainer.TotalSteps(), *ckpt)
		os.Exit(130)
	}
	agent := trainer.Finish()

	agentStats := rl.Evaluate(cfg, agent, tr)
	lru := cachesim.RunPolicy(cfg, policy.MustNew("lru"), tr)
	oracle := policy.NewOracle(tr, cfg.LineSize)
	bel := cachesim.RunPolicy(cfg, policy.NewBelady(oracle), tr)
	fmt.Printf("\nhit rates: LRU=%.2f%%  RL=%.2f%%  Belady=%.2f%%\n\n",
		lru.HitRate(), agentStats.HitRate(), bel.HitRate())
	if *int8Eval {
		q := rl.EvaluateInt8(cfg, agent, tr)
		fmt.Printf("int8 eval: %.2f%% (Δ %+.3f pp vs float)\n\n", q.HitRate(), q.HitRate()-agentStats.HitRate())
	}
	manifest.Write(obs.ManifestRecord{
		Kind: obs.RecRunEnd, Epoch: trainer.Epoch(), Steps: trainer.TotalSteps(),
		HitRate: agentStats.HitRate(), WeightNorm: agent.WeightNorm(),
	})

	fmt.Println("Feature importance (mean |input weight|, Figure 3):")
	for _, row := range analysis.HeatMap(agent) {
		fmt.Printf("  %-28s %.5f\n", row.Feature, row.Weight)
	}

	st := analysis.CollectVictimStats(cfg, agent, tr)
	fmt.Printf("\nVictim statistics over %d evictions:\n", st.Victims)
	fmt.Printf("  avg victim age by type (Fig 5): LD=%.1f RFO=%.1f PF=%.1f WB=%.1f\n",
		st.AvgAgeByType[trace.Load], st.AvgAgeByType[trace.RFO],
		st.AvgAgeByType[trace.Prefetch], st.AvgAgeByType[trace.Writeback])
	fmt.Printf("  hits at eviction (Fig 6): 0=%.1f%% 1=%.1f%% >1=%.1f%%\n",
		100*st.HitsZero, 100*st.HitsOne, 100*st.HitsMore)
	fmt.Printf("  victim recency histogram (Fig 7): %v\n", fmtPct(st.RecencyPct))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := agent.SaveModel(f); err != nil {
			fail(err)
		}
		fmt.Printf("\nmodel written to %s\n", *out)
	}
}

func fmtPct(xs []float64) []string {
	out := make([]string, len(xs))
	for i, v := range xs {
		out[i] = fmt.Sprintf("%.0f", v)
	}
	return out
}
