package rl

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TrainOptions configures a training run over one LLC access trace.
type TrainOptions struct {
	Agent  AgentConfig
	Epochs int // replay passes over the trace (experience replay lets each pass reuse old experience)
}

// DefaultTrainOptions returns a compute-scaled training setup.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{Agent: DefaultAgentConfig(), Epochs: 2}
}

// Trainer is a resumable training run: the §III-A loop of Train broken
// into single-access steps so a long run can snapshot its complete state
// between any two steps and, after being killed, resume from the snapshot
// with byte-identical results to an uninterrupted run.
//
// The snapshot (SaveState/LoadState) covers the agent's network with its
// optimizer moments, the replay ring, the RNG, the pending
// transition, and the in-flight simulator (cache contents, statistics,
// and access-preuse history) plus the epoch/trace cursor. The oracle's
// replay cursor is not stored: it is a pure function of the trace position
// and is re-derived on load (policy.Oracle.SeekReplay).
type Trainer struct {
	cfg      cache.Config
	opts     TrainOptions
	epochs   int
	accesses []trace.Access

	agent  *Agent
	oracle *policy.Oracle
	sim    *cachesim.Simulator

	epoch  int // completed-epoch count; current epoch while cursor > 0
	cursor int // index of the next access to replay within the epoch

	observer func(EpochStats) // optional per-epoch telemetry callback
}

// EpochStats is the training telemetry of one completed epoch, delivered
// to the observer installed with SetEpochObserver and written by the cmd
// layer into the run-manifest JSONL.
type EpochStats struct {
	Epoch      int     // 0-based index of the epoch that just completed
	Steps      uint64  // accesses replayed in the epoch
	Loss       float64 // mean minibatch TD loss
	MeanReward float64 // mean per-decision reward
	Epsilon    float64 // exploration rate in effect
	HitRate    float64 // the epoch simulator's hit percentage
	WeightNorm float64 // L2 norm of the network after the epoch
	Decisions  uint64  // training decisions in the epoch
	Batches    uint64  // minibatch updates in the epoch
}

// SetEpochObserver installs fn to be called at every epoch boundary with
// that epoch's telemetry. The callback runs on the training goroutine
// between steps; it must not call back into the trainer. Telemetry windows
// are drained per epoch, so installing an observer mid-run (e.g. after a
// resume) yields a first record covering only the remainder of its epoch.
func (t *Trainer) SetEpochObserver(fn func(EpochStats)) { t.observer = fn }

// NewTrainer builds a fresh training run over accesses against a cache of
// geometry cfg. The run starts at epoch 0, cursor 0; drive it with Step
// (or Run) and finish with Finish.
func NewTrainer(cfg cache.Config, accesses []trace.Access, opts TrainOptions) *Trainer {
	epochs := opts.Epochs
	if epochs < 1 {
		epochs = 1
	}
	agent := NewAgent(opts.Agent)
	oracle := policy.NewOracle(accesses, cfg.LineSize)
	agent.SetOracle(oracle)
	agent.SetTraining(true)
	return &Trainer{
		cfg:      cfg,
		opts:     opts,
		epochs:   epochs,
		accesses: accesses,
		agent:    agent,
		oracle:   oracle,
	}
}

// Done reports whether every epoch has been fully replayed.
func (t *Trainer) Done() bool { return t.epoch >= t.epochs || len(t.accesses) == 0 }

// Epoch returns the current epoch index (== configured epochs when done).
func (t *Trainer) Epoch() int { return t.epoch }

// Cursor returns the index of the next access within the current epoch.
func (t *Trainer) Cursor() int { return t.cursor }

// TotalSteps returns the number of accesses replayed so far across epochs.
func (t *Trainer) TotalSteps() uint64 {
	return uint64(t.epoch)*uint64(len(t.accesses)) + uint64(t.cursor)
}

// beginEpoch starts the current epoch exactly the way the original Train
// loop did: rewind the oracle's replay cursor, build a fresh simulator
// (whose Init drops any pending cross-epoch transition), and attach it.
func (t *Trainer) beginEpoch() {
	t.oracle.ResetReplay()
	t.sim = cachesim.New(t.cfg, 1, t.agent)
	t.agent.SetSim(t.sim)
}

// Step replays one access and reports whether more work remains. The first
// step of each epoch lazily sets the epoch up, so a snapshot taken at an
// epoch boundary carries no simulator state.
func (t *Trainer) Step() bool {
	if t.Done() {
		return false
	}
	if t.sim == nil {
		t.beginEpoch()
	}
	t.sim.Step(t.accesses[t.cursor])
	t.cursor++
	if t.cursor == len(t.accesses) {
		if t.observer != nil {
			tel := t.agent.TakeTelemetry()
			st := t.sim.Stats()
			t.observer(EpochStats{
				Epoch:      t.epoch,
				Steps:      uint64(len(t.accesses)),
				Loss:       tel.Loss,
				MeanReward: tel.MeanReward,
				Epsilon:    t.agent.Epsilon(),
				HitRate:    st.HitRate(),
				WeightNorm: t.agent.WeightNorm(),
				Decisions:  tel.Decisions,
				Batches:    tel.Batches,
			})
		}
		t.epoch++
		t.cursor = 0
		t.sim = nil
	}
	return !t.Done()
}

// Run drives the trainer to completion.
func (t *Trainer) Run() {
	for t.Step() {
	}
}

// Finish takes the agent out of training mode and returns it.
func (t *Trainer) Finish() *Agent {
	t.agent.SetTraining(false)
	return t.agent
}

// trainerHead is the fixed-size head of a saved run. binary.Write encodes
// its fields in declaration order, little-endian, with no padding.
type trainerHead struct{ TraceLen, Epoch, Cursor, HasSim uint64 }

// SaveState serializes the run's complete resume state. It must be called
// between steps (never concurrently with Step).
func (t *Trainer) SaveState(w io.Writer) error {
	h := trainerHead{TraceLen: uint64(len(t.accesses)), Epoch: uint64(t.epoch), Cursor: uint64(t.cursor)}
	if t.sim != nil {
		h.HasSim = 1
	}
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return err
	}
	if err := t.agent.saveState(w); err != nil {
		return err
	}
	if t.sim != nil {
		return t.sim.SaveState(w)
	}
	return nil
}

// LoadState restores a snapshot written by SaveState into this trainer,
// which must have been constructed with the same cfg, accesses, and
// options as the trainer that saved it (the cmd layer guards this with a
// run fingerprint). Afterwards the trainer continues exactly where the
// snapshot was taken.
func (t *Trainer) LoadState(r io.Reader) error {
	var h trainerHead
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return err
	}
	if int(h.TraceLen) != len(t.accesses) {
		return fmt.Errorf("rl: snapshot is for a %d-access trace, trainer has %d", h.TraceLen, len(t.accesses))
	}
	if int(h.Epoch) > t.epochs || int(h.Cursor) >= max(len(t.accesses), 1) || h.HasSim > 1 {
		return fmt.Errorf("rl: implausible snapshot position (epoch=%d cursor=%d hasSim=%d)",
			h.Epoch, h.Cursor, h.HasSim)
	}
	if h.HasSim == 1 {
		// Build the epoch's simulator first: its Init re-derives the
		// featurizer and scratch buffers, and the state loads below then
		// overwrite everything Init reset.
		t.sim = cachesim.New(t.cfg, 1, t.agent)
	} else {
		t.sim = nil
	}
	if err := t.agent.loadState(r); err != nil {
		return err
	}
	if t.sim != nil {
		if err := t.sim.LoadState(r); err != nil {
			return err
		}
		t.agent.SetSim(t.sim)
		// The oracle cursor is a function of trace position; re-derive it.
		t.oracle.SeekReplay(h.Cursor)
	}
	t.epoch, t.cursor = int(h.Epoch), int(h.Cursor)
	return nil
}

// Train teaches a fresh agent on the given LLC access trace replayed
// against a cache of geometry cfg, returning the trained agent. The reward
// oracle is built from the same trace, exactly as the paper's Python
// framework does. Train is the non-resumable convenience over Trainer and
// produces identical results.
func Train(cfg cache.Config, accesses []trace.Access, opts TrainOptions) *Agent {
	t := NewTrainer(cfg, accesses, opts)
	t.Run()
	return t.Finish()
}

// Evaluate replays accesses against a fresh cache under the agent's greedy
// policy (no exploration, no learning) and returns the statistics.
func Evaluate(cfg cache.Config, agent *Agent, accesses []trace.Access) cachesim.Stats {
	agent.SetTraining(false)
	sim := cachesim.New(cfg, 1, agent)
	agent.SetSim(sim)
	return sim.Run(accesses)
}

// EvaluateInt8 replays accesses under the agent's frozen int8 policy: the
// network is quantized once, every Victim decision is scored by
// the integer kernels, and the float net is untouched. The int8 copy is
// dropped afterwards. Use behind the experiments accuracy gate.
func EvaluateInt8(cfg cache.Config, agent *Agent, accesses []trace.Access) cachesim.Stats {
	agent.SetTraining(false)
	sim := cachesim.New(cfg, 1, agent)
	agent.SetSim(sim)
	agent.SetInt8(true) // after Init (which clears it), before the run
	defer agent.SetInt8(false)
	return sim.Run(accesses)
}
