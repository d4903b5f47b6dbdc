package rl

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/obs"
	"repro/internal/policy"
)

// TestBatchedTrainByteIdentical is the checkpoint-compatibility pin: the
// batched minibatch step must leave the trainer in EXACTLY the state the
// per-sample step does — same weights, same optimizer moments, same RNG,
// same replay ring — for a fixed seed. Byte equality of the full
// serialized state is the strongest form of "batching did not change
// training".
func TestBatchedTrainByteIdentical(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 2
	accesses := cyclicTrace(6, 50)

	batched := NewTrainer(cc, accesses, opts)
	scalar := NewTrainer(cc, accesses, opts)
	scalar.Agent().stepFn = (*Agent).trainStepScalar

	got := finalState(t, batched)
	want := finalState(t, scalar)
	if !bytes.Equal(got, want) {
		t.Errorf("batched and scalar training states differ (%d vs %d bytes)", len(got), len(want))
	}
}

// trainStepScalar is the pre-batching minibatch update, one sample at a
// time: the equivalence oracle for the batched trainStep (and the portable
// reference should the kernels ever be in doubt).
func (a *Agent) trainStepScalar() {
	a.batch = a.replay.Sample(a.batch, a.cfg.BatchSize, a.rng)
	target := make([]float64, a.q.OutputSize())
	a.q.ZeroGrad()
	loss := 0.0
	for _, tr := range a.batch {
		out := a.q.Forward(tr.State)
		d := tr.Reward - out[tr.Action]
		loss += d * d
		for i := range target {
			target[i] = math.NaN()
		}
		target[tr.Action] = tr.Reward
		a.q.Backward(target)
	}
	a.q.AdamStep(a.cfg.LearningRate, len(a.batch))
	if n := len(a.batch); n > 0 {
		a.telLossSum += loss / float64(n)
		a.telBatches++
	}
}

// TestTracedDecisionsIdenticalUnderBatchedTraining covers the obs/Traced
// satellite: a batched-trained agent, evaluated under policy.Traced, must
// emit exactly the decision records a scalar-trained agent does — one
// record per victim, byte-identical fields.
func TestTracedDecisionsIdenticalUnderBatchedTraining(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 2
	accesses := cyclicTrace(6, 50)

	runTraced := func(scalarStep bool) ([]obs.CacheEvent, cachesim.Stats) {
		tr := NewTrainer(cc, accesses, opts)
		if scalarStep {
			tr.Agent().stepFn = (*Agent).trainStepScalar
		}
		tr.Run()
		agent := tr.Finish()
		ring := obs.NewRing[obs.CacheEvent](len(accesses))
		traced := policy.NewTraced(agent, obs.NewSinkHook(ring, 1))
		sim := cachesim.New(cc, 1, traced)
		agent.SetSim(sim)
		stats := sim.Run(accesses)
		return ring.Snapshot(), stats
	}

	gotEv, gotStats := runTraced(false)
	wantEv, wantStats := runTraced(true)
	if gotStats != wantStats {
		t.Errorf("batched-trained eval stats %+v differ from scalar-trained %+v", gotStats, wantStats)
	}
	if len(gotEv) == 0 {
		t.Fatal("traced evaluation recorded no decisions")
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("decision record count differs: %d vs %d", len(gotEv), len(wantEv))
	}
	for i := range gotEv {
		if !reflect.DeepEqual(gotEv[i], wantEv[i]) {
			t.Fatalf("decision record %d differs:\n  batched: %+v\n  scalar:  %+v", i, gotEv[i], wantEv[i])
		}
		if gotEv[i].Kind != obs.EvDecision {
			t.Fatalf("record %d has kind %v, want EvDecision", i, gotEv[i].Kind)
		}
	}
}

// TestEvaluateInt8 exercises the frozen int8 evaluation path end to end:
// it must run the whole trace, leave the agent back on float inference,
// and land near the float result. The tight 0.1 pp gate lives in the
// experiments quantgate test over the fig1 grid; this is the unit-level
// sanity bound.
func TestEvaluateInt8(t *testing.T) {
	cc, opts := trainCfg()
	opts.Epochs = 2
	accesses := cyclicTrace(6, 60)
	agent := Train(cc, accesses, opts)

	f := Evaluate(cc, agent, accesses)
	q := EvaluateInt8(cc, agent, accesses)
	if agent.Int8() {
		t.Error("agent still in int8 mode after EvaluateInt8")
	}
	if q.Hits+q.Misses != f.Hits+f.Misses {
		t.Fatalf("int8 run covered %d accesses, float %d", q.Hits+q.Misses, f.Hits+f.Misses)
	}
	if d := q.HitRate() - f.HitRate(); d > 10 || d < -10 {
		t.Errorf("int8 hit rate %.2f%% far from float %.2f%%", q.HitRate(), f.HitRate())
	}
}

// TestSetInt8Lifecycle: panics before Init, freezes after, and the frozen
// copy follows LoadModel.
func TestSetInt8Lifecycle(t *testing.T) {
	cc, opts := trainCfg()
	agent := NewAgent(opts.Agent)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetInt8 before Init did not panic")
			}
		}()
		agent.SetInt8(true)
	}()

	trained := Train(cc, cyclicTrace(6, 40), opts)
	var model bytes.Buffer
	if err := trained.SaveModel(&model); err != nil {
		t.Fatal(err)
	}

	fresh := NewAgent(opts.Agent)
	fresh.Init(policy.Config{Config: cache.Config{Sets: cc.Sets, Ways: cc.Ways, LineSize: cc.LineSize}, NumCores: 1})
	fresh.SetInt8(true)
	if !fresh.Int8() {
		t.Fatal("Int8() false after SetInt8(true)")
	}
	if err := fresh.LoadModel(bytes.NewReader(model.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !fresh.Int8() {
		t.Error("LoadModel dropped the int8 copy instead of rebuilding it")
	}
	fresh.SetInt8(false)
	if fresh.Int8() {
		t.Error("Int8() true after SetInt8(false)")
	}
}
