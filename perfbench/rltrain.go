package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/trace"
)

// rlTraceLen is the length of the 429.mcf trace one epoch trains on. The
// bench-scale LLC holds 4096 lines, so the first ~4.4k steps fill it
// without a victim decision; the other ~330 steps are decisions, each
// scored by the network and followed by minibatch training, and take over
// 90% of the epoch. The length keeps an epoch near 100 ms, so a 20 s run
// holds well over the 100 items its p90 needs.
const rlTraceLen = 4_700

// rlWorkload is the workload whose trace rl-train captures, the one
// cmd/rltrain trains on by default. Unlike the other workloads, its trace
// does not vary with the seed: an epoch's cost is set by how many of its
// steps come after the LLC fills, and on a re-seeded trace that moved the
// epoch from 146 to 199 ms. The seed seeds the agent instead (network
// initialisation, exploration and replay sampling).
const rlWorkload = "429.mcf"

type rlTrain struct {
	cfg  cache.Config
	opts rl.TrainOptions
	accs []trace.Access
	ref  digests
	// traced-round sums
	steps, decisions, batches float64
	net                       *nn.MLP // the last traced agent's network
}

// setupRLTrain captures the training trace. Every epoch builds its own
// oracle, as a fresh rl.Trainer does, so the traced epochs time that build.
func setupRLTrain(seed uint64, log *setupLog) (workload, error) {
	experiments.ResetCaches() // capture afresh in every set-up
	s := benchScale(rlTraceLen)
	t0 := cpuNow()
	accs, err := experiments.CaptureLLCTrace(rlWorkload, s)
	if err != nil {
		return nil, err
	}
	log.add("capture", cpuNow()-t0)
	cfg := s.LLCConfig()
	// The width and training schedule cmd/rltrain uses by default.
	opts := rl.DefaultTrainOptions()
	opts.Epochs = 1
	opts.Agent.Seed = seed
	return &rlTrain{cfg: cfg, opts: opts, accs: accs, ref: digests{}}, nil
}

func (w *rlTrain) digest() string { return w.ref.combined() }

// round trains one fresh agent for one epoch. Untraced rounds use
// rl.Trainer; traced rounds rebuild its epoch loop from public calls with
// the agent behind a timed policy wrapper, and must end with the same
// weights.
func (w *rlTrain) round(rec *recorder, tr *tracer) error {
	var agent *rl.Agent
	var d interval
	if tr == nil {
		t0 := readClocks()
		t := rl.NewTrainer(w.cfg, w.accs, w.opts)
		t.Run()
		d = t0.elapsed()
		agent = t.Finish()
	} else {
		agent, d = w.tracedEpoch(tr)
	}
	rec.item(d, float64(len(w.accs)))
	sum, err := modelDigest(agent)
	if err != nil {
		return err
	}
	if err := w.ref.check("epoch", sum); err != nil {
		rec.fail(1, err)
	}
	return nil
}

// tracedEpoch is rl.Trainer's single-epoch run (NewTrainer, beginEpoch,
// the Step loop, Finish) built from public calls.
func (w *rlTrain) tracedEpoch(tr *tracer) (*rl.Agent, interval) {
	t0 := readClocks()
	var agent *rl.Agent
	tr.span("rl.new_agent", func() { agent = rl.NewAgent(w.opts.Agent) })
	var oracle *policy.Oracle
	tr.span("oracle.build", func() { oracle = policy.NewOracle(w.accs, w.cfg.LineSize) })
	agent.SetOracle(oracle)
	agent.SetTraining(true)
	oracle.ResetReplay()
	timed := newTimedPolicy(agent, tr.timer("rl.victim", 1), tr.timer("rl.update", policyStride))
	tr.span("cachesim", func() {
		sim := cachesim.New(w.cfg, 1, timed)
		agent.SetSim(sim)
		sim.Run(w.accs)
	})
	d := t0.elapsed()
	tel := agent.TakeTelemetry()
	agent.SetTraining(false)
	w.steps += float64(len(w.accs))
	w.decisions += float64(tel.Decisions)
	w.batches += float64(tel.Batches)
	w.net = agent.Network()
	return agent, d
}

// modelDigest hashes the agent's trained network.
func modelDigest(a *rl.Agent) ([sha256.Size]byte, error) {
	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("save model: %w", err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

func (w *rlTrain) layers(tr *tracer) map[string]metric {
	victim := tr.timer("rl.victim", 1)
	self := tr.timer("cachesim", 1).totalNs() - tr.sum("rl.victim", "rl.update")
	fwd, bwd := nnBatchTimes(w.net, w.opts.Agent.BatchSize)
	return map[string]metric{
		"rl.victim_us":                {victim.meanNs() / 1000, "us"},
		"rl.decisions_per_kstep":      {1000 * w.decisions / w.steps, "1/kstep"},
		"rl.batches_per_kstep":        {1000 * w.batches / w.steps, "1/kstep"},
		"policy.victim_ns":            {victim.meanNs(), "ns"},
		"policy.update_ns":            {tr.timer("rl.update", policyStride).meanNs(), "ns"},
		"cachesim.self_ns_per_access": {self / w.steps, "ns"},
		"nn.forward_batch_us":         {fwd, "us"},
		"nn.backward_batch_us":        {bwd, "us"},
		"setup.oracle_build_s":        {tr.timer("oracle.build", 1).meanNs() / 1e9, "s"},
	}
}

// nnBatchTimes times standalone ForwardBatch and BackwardBatch calls at the
// agent's network shape and minibatch size on a copy of the network, and
// returns the median microseconds of each.
func nnBatchTimes(net *nn.MLP, batch int) (fwdUs, bwdUs float64) {
	if net == nil {
		return 0, 0
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return 0, 0
	}
	m, err := nn.Load(&buf)
	if err != nil {
		return 0, 0
	}
	m.EnsureBatch(batch)
	xs := make([]float64, batch*m.InputSize())
	for i := range xs {
		xs[i] = math.Sin(float64(i))
	}
	targets := make([]float64, batch*m.OutputSize())
	for i := range targets {
		targets[i] = math.NaN()
	}
	for r := 0; r < batch; r++ {
		targets[r*m.OutputSize()+r%m.OutputSize()] = 1
	}
	const reps = 400
	fwd, bwd := make([]float64, reps), make([]float64, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		m.ForwardBatch(xs, batch)
		fwd[i] = float64(time.Since(t0)-clockCost) / 1000
		t0 = time.Now()
		m.BackwardBatch(targets, batch)
		bwd[i] = float64(time.Since(t0)-clockCost) / 1000
		m.ZeroGrad()
	}
	return median(fwd), median(bwd)
}
