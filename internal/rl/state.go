package rl

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/nn"
)

// agentHead is the fixed-size head of a saved agent. binary.Write encodes
// its fields in declaration order, little-endian, with no padding.
type agentHead struct {
	RNG           [4]uint64
	Decisions     uint64
	Pending       uint64 // 1 when a decision is waiting to enter the ring
	PendingAction int64
	PendingReward float64
	StateLen      uint64 // length of the pending state that follows
}

// saveState serializes everything that makes the agent's future behaviour:
// RNG state, decision counter, the pending (not yet stored) transition, the
// network with its full optimizer state, and the replay ring. Scratch
// buffers (state/batch) are excluded — they are overwritten before every
// read.
func (a *Agent) saveState(w io.Writer) error {
	if a.q == nil {
		return fmt.Errorf("rl: cannot snapshot an agent before Init")
	}
	h := agentHead{
		RNG:           a.rng.State(),
		Decisions:     a.decisions,
		PendingAction: int64(a.pendingAction),
		PendingReward: a.pendingReward,
		StateLen:      uint64(len(a.pendingState)),
	}
	if a.pendingValid {
		h.Pending = 1
	}
	le := binary.LittleEndian
	if err := binary.Write(w, le, &h); err != nil {
		return err
	}
	if err := binary.Write(w, le, a.pendingState); err != nil {
		return err
	}
	if err := a.q.SaveFull(w); err != nil {
		return err
	}
	return a.replay.saveState(w)
}

// loadState restores state saved with saveState. The agent must have been
// constructed with the same AgentConfig; if it has already been Init-ed
// the loaded network must match the geometry's vector and way widths.
func (a *Agent) loadState(r io.Reader) error {
	le := binary.LittleEndian
	var h agentHead
	if err := binary.Read(r, le, &h); err != nil {
		return err
	}
	if h.Pending > 1 {
		return fmt.Errorf("rl: implausible pending flag %d", h.Pending)
	}
	if h.StateLen > 1<<24 {
		return fmt.Errorf("rl: implausible pending-state length %d", h.StateLen)
	}
	a.rng.SetState(h.RNG)
	a.decisions = h.Decisions
	a.pendingValid = h.Pending == 1
	a.pendingAction = int(h.PendingAction)
	a.pendingReward = h.PendingReward
	if uint64(len(a.pendingState)) != h.StateLen {
		a.pendingState = make([]float64, h.StateLen)
	}
	if err := binary.Read(r, le, a.pendingState); err != nil {
		return err
	}
	q, err := nn.LoadFull(r)
	if err != nil {
		return fmt.Errorf("rl: loading network: %w", err)
	}
	if a.feat != nil {
		if q.InputSize() != a.feat.VectorSize() || q.OutputSize() != a.pcfg.Ways {
			return fmt.Errorf("rl: snapshot network is %d->%d, geometry needs %d->%d",
				q.InputSize(), q.OutputSize(), a.feat.VectorSize(), a.pcfg.Ways)
		}
	}
	a.q = q
	return a.replay.loadState(r)
}
