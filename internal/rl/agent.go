package rl

import (
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/xrand"
)

// AgentConfig holds the RL hyperparameters of §III-A.
type AgentConfig struct {
	Hidden       int     // hidden-layer width (175 in the paper)
	Epsilon      float64 // ε-greedy exploration rate (0.1)
	LearningRate float64 // Adam step size
	BatchSize    int     // replay minibatch size
	ReplayCap    int     // replay memory entries
	MinReplay    int     // decisions before training starts
	TrainEvery   int     // decisions between minibatch updates
	Seed         uint64
	Features     FeatureSet
}

// DefaultAgentConfig returns the paper's configuration scaled for this
// repository's compute budget: the 175-neuron hidden layer, tanh/linear
// activations, ε = 0.1 and experience replay. The Belady reward is
// immediate, so each sample's training target is its reward alone: no
// discount, and no target network to bootstrap from.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		Hidden:       175,
		Epsilon:      0.1,
		LearningRate: 1e-3,
		BatchSize:    32,
		ReplayCap:    4096,
		MinReplay:    256,
		TrainEvery:   4,
		Seed:         1,
		Features:     AllFeatures(),
	}
}

// Agent is the §III-A RL agent: a policy.Policy whose Victim decision is
// the ε-greedy argmax of an MLP scoring each way of the accessed set, and
// which trains itself online against the Belady-aligned reward when a
// future-knowledge oracle is attached.
type Agent struct {
	cfg  AgentConfig
	pcfg policy.Config
	feat *Featurizer

	q      *nn.MLP
	replay *Replay
	rng    *xrand.Rand

	sim      *cachesim.Simulator
	oracle   *policy.Oracle
	training bool

	// The not-yet-stored previous decision, kept in reused buffers so the
	// training path allocates nothing per decision.
	pendingValid  bool
	pendingAction int
	pendingReward float64
	pendingState  []float64
	decisions     uint64

	state []float64
	batch []Transition

	// Batched-minibatch scratch: the whole replay minibatch gathered into
	// row-major matrices for single ForwardBatch/BackwardBatch kernel
	// calls.
	bstate  []float64
	btarget []float64

	// qint8, when non-nil, scores Victim decisions with the frozen int8
	// network. Evaluation-only: training decisions always use the float
	// net, so SetInt8 never changes a training run.
	qint8 *nn.Quantized

	// stepFn, when non-nil, replaces the batched minibatch update. Tests
	// set it to the per-sample reference step to prove the batched one
	// byte-identical; production paths leave it nil.
	stepFn func(*Agent)

	// Telemetry accumulators, drained per epoch by TakeTelemetry. Plain
	// float/integer adds on the decision and minibatch paths: no
	// allocation, no effect on decisions, negligible cost, so they run
	// unconditionally.
	telLossSum   float64 // sum of per-minibatch mean squared TD errors
	telBatches   uint64  // minibatch updates since the last drain
	telRewardSum float64 // sum of per-decision rewards
	telDecisions uint64  // training decisions since the last drain

	// VictimObserver, when set, is called for each eviction decision with
	// the chosen way and that line's metadata — the Figure 5/6/7 feeds.
	VictimObserver func(ctx policy.AccessCtx, set *cache.Set, way int)
}

// NewAgent builds an agent. Attach an oracle (SetOracle) and enable
// training (SetTraining) to learn; otherwise it acts greedily with its
// current weights.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Hidden <= 0 {
		panic("rl: agent needs a positive hidden width")
	}
	if cfg.BatchSize <= 0 || cfg.ReplayCap <= 0 {
		panic("rl: agent needs positive batch and replay sizes")
	}
	return &Agent{
		cfg:    cfg,
		rng:    xrand.New(cfg.Seed ^ 0xA6EA7),
		replay: NewReplay(cfg.ReplayCap),
	}
}

// SetSim attaches the simulator whose address history provides the
// access-preuse feature, and makes it keep that history. Call right after
// cachesim.New (or after the simulator's LoadState), before its first Step.
func (a *Agent) SetSim(sim *cachesim.Simulator) { sim.TrackAccessPreuse(); a.sim = sim }

// SetOracle attaches future knowledge for reward computation.
func (a *Agent) SetOracle(o *policy.Oracle) { a.oracle = o }

// SetTraining toggles learning (and ε-greedy exploration).
func (a *Agent) SetTraining(on bool) { a.training = on }

// Network returns the Q-network (heat-map analysis reads it).
func (a *Agent) Network() *nn.MLP { return a.q }

// Featurizer returns the agent's featurizer (for slot mapping).
func (a *Agent) Featurizer() *Featurizer { return a.feat }

// SaveModel writes the network to w.
func (a *Agent) SaveModel(w io.Writer) error { return a.q.Save(w) }

// LoadModel replaces the network with the model from r. The agent must
// already be Init-ed against a matching geometry.
func (a *Agent) LoadModel(r io.Reader) error {
	m, err := nn.Load(r)
	if err != nil {
		return err
	}
	a.q = m
	if a.qint8 != nil {
		a.qint8 = nn.Quantize(a.q)
	}
	return nil
}

// Name implements policy.Policy.
func (*Agent) Name() string { return "rl" }

// Init implements policy.Policy. Re-initialization against the same
// geometry preserves learned weights, so one agent can train across
// multiple simulator instances (epochs).
func (a *Agent) Init(cfg policy.Config) {
	a.pcfg = cfg
	a.feat = NewFeaturizer(cfg, a.cfg.Features)
	size := a.feat.VectorSize()
	if a.q == nil || a.q.InputSize() != size || a.q.OutputSize() != cfg.Ways {
		a.q = nn.NewMLP(size, a.cfg.Seed,
			nn.LayerSpec{Units: a.cfg.Hidden, Act: nn.Tanh},
			nn.LayerSpec{Units: cfg.Ways, Act: nn.Linear})
	}
	a.state = make([]float64, size)
	a.pendingState = make([]float64, size)
	a.bstate = make([]float64, a.cfg.BatchSize*size)
	a.btarget = make([]float64, a.cfg.BatchSize*cfg.Ways)
	a.q.EnsureBatch(a.cfg.BatchSize)
	a.qint8 = nil
	a.pendingValid = false
	a.sim = nil
}

// SetInt8 toggles frozen int8 inference: on freezes the current
// network into an nn.Quantized copy used for greedy Victim scoring while
// training is off; off returns to float inference. The copy is rebuilt by
// LoadModel, so freeze-then-load stays coherent. Evaluation-only runs
// (rlrsim, sweeps) use this behind the experiments accuracy gate.
func (a *Agent) SetInt8(on bool) {
	if !on {
		a.qint8 = nil
		return
	}
	if a.q == nil {
		panic("rl: SetInt8 before Init")
	}
	a.qint8 = nn.Quantize(a.q)
}

// Victim implements policy.Policy: ε-greedy argmax over the network's
// per-way quality estimates, with reward generation and replay/training on
// the side when learning is enabled.
func (a *Agent) Victim(ctx policy.AccessCtx, set *cache.Set) int {
	preuse := uint64(cachesim.NeverAccessed)
	if a.sim != nil {
		preuse = a.sim.AccessPreuse(ctx.Addr)
	}
	a.feat.Build(a.state, ctx, set, preuse)

	var qv []float64
	if a.qint8 != nil && !a.training {
		qv = a.qint8.Forward(a.state)
	} else {
		qv = a.q.Forward(a.state)
	}
	action := argmax(qv)
	if a.training && a.rng.Float64() < a.cfg.Epsilon {
		action = a.rng.Intn(a.pcfg.Ways)
	}

	if a.VictimObserver != nil {
		a.VictimObserver(ctx, set, action)
	}

	if a.training && a.oracle != nil {
		// A decision enters the replay ring one decision late, so the
		// minibatch drawn below never includes the decision just made.
		if a.pendingValid {
			a.replay.Put(a.pendingState, a.pendingAction, a.pendingReward)
		}
		copy(a.pendingState, a.state)
		a.pendingAction = action
		a.pendingReward = a.reward(ctx, set, action)
		a.pendingValid = true
		a.decisions++
		a.telRewardSum += a.pendingReward
		a.telDecisions++
		if a.replay.Len() >= a.cfg.MinReplay && a.decisions%uint64(a.cfg.TrainEvery) == 0 {
			a.trainStep()
		}
	}
	return action
}

// Update implements policy.Policy; all agent logic runs at decision time.
func (*Agent) Update(policy.AccessCtx, *cache.Set, int, bool) {}

// Telemetry is a drained snapshot of the agent's training accumulators:
// the mean minibatch TD loss and mean per-decision reward since the last
// drain (both 0 when nothing accumulated).
type Telemetry struct {
	Loss       float64 // mean of per-minibatch mean squared TD errors
	MeanReward float64 // mean reward over training decisions
	Batches    uint64  // minibatch updates in the window
	Decisions  uint64  // training decisions in the window
}

// TakeTelemetry returns the accumulated telemetry and resets the window
// (the trainer drains once per epoch).
func (a *Agent) TakeTelemetry() Telemetry {
	t := Telemetry{Batches: a.telBatches, Decisions: a.telDecisions}
	if a.telBatches > 0 {
		t.Loss = a.telLossSum / float64(a.telBatches)
	}
	if a.telDecisions > 0 {
		t.MeanReward = a.telRewardSum / float64(a.telDecisions)
	}
	a.telLossSum, a.telBatches = 0, 0
	a.telRewardSum, a.telDecisions = 0, 0
	return t
}

// Epsilon returns the configured exploration rate (manifest telemetry).
func (a *Agent) Epsilon() float64 { return a.cfg.Epsilon }

// WeightNorm returns the network's L2 weight norm, or 0 before Init.
func (a *Agent) WeightNorm() float64 {
	if a.q == nil {
		return 0
	}
	return a.q.WeightNorm()
}

// reward implements the §III-A reward: +1 for evicting the line with the
// farthest reuse distance (the Belady decision), −1 for evicting a line
// that would be reused sooner than the inserted one, 0 otherwise.
func (a *Agent) reward(ctx policy.AccessCtx, set *cache.Set, action int) float64 {
	farthest := uint64(0)
	for w := range set.Lines {
		nu := a.oracle.NextUseBlock(set.Lines[w].Block, ctx.Seq)
		if nu > farthest {
			farthest = nu
		}
	}
	evictedNU := a.oracle.NextUseBlock(set.Lines[action].Block, ctx.Seq)
	if evictedNU == farthest {
		return 1
	}
	if evictedNU < a.oracle.NextUse(ctx.Addr, ctx.Seq) {
		return -1
	}
	return 0
}

// trainStep runs one minibatch DQN update through the batched matrix
// kernels: the whole minibatch's states go through one ForwardBatch, the
// masked targets through one BackwardBatch. Each target is the sample's
// reward. Byte-identical to the per-sample reference step in the tests —
// the RNG draws are the same Sample call, each forward row is
// bit-identical to a scalar Forward, the loss sums squared errors in the
// same ascending sample order, and BackwardBatch accumulates gradients in
// the order sequential Backward calls would — so batching cannot change
// trained weights for a fixed seed (TestBatchedTrainByteIdentical pins
// this).
func (a *Agent) trainStep() {
	if a.stepFn != nil {
		a.stepFn(a)
		return
	}
	a.batch = a.replay.Sample(a.batch, a.cfg.BatchSize, a.rng)
	n := len(a.batch)
	if n == 0 {
		return
	}
	size := a.q.InputSize()
	ways := a.q.OutputSize()
	for i, tr := range a.batch {
		copy(a.bstate[i*size:(i+1)*size], tr.State)
	}
	// Gradients are already zero: they start that way and AdamStep
	// clears them as it consumes them.
	out := a.q.ForwardBatch(a.bstate[:n*size], n)
	loss := 0.0
	for i, tr := range a.batch {
		d := tr.Reward - out[i*ways+tr.Action]
		loss += d * d
		row := a.btarget[i*ways : (i+1)*ways]
		for j := range row {
			row[j] = math.NaN()
		}
		row[tr.Action] = tr.Reward
	}
	a.q.BackwardBatch(a.btarget[:n*ways], n)
	a.q.AdamStep(a.cfg.LearningRate, n)
	a.telLossSum += loss / float64(n)
	a.telBatches++
}

func argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// compile-time interface check
var _ policy.Policy = (*Agent)(nil)
