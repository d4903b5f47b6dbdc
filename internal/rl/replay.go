package rl

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/xrand"
)

// Transition is one replacement decision stored for experience replay
// (§III-A): ⟨state, action, reward⟩. The Belady reward is immediate, so no
// next state is kept.
type Transition struct {
	State  []float64
	Action int
	Reward float64
}

// Replay is the bounded circular replay memory: the oldest transaction is
// overwritten by a new one, and training samples batches uniformly at
// random, breaking the similarity of subsequent samples.
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay returns a replay memory of the given capacity.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic("rl: replay capacity must be positive")
	}
	return &Replay{buf: make([]Transition, capacity)}
}

// Put stores a transition by copying state into the evicted slot's
// recycled buffer: after the ring has been around once, Put does no heap
// allocation.
func (r *Replay) Put(state []float64, action int, reward float64) {
	t := &r.buf[r.next]
	t.State = append(t.State[:0], state...)
	t.Action = action
	t.Reward = reward
	r.advance()
}

func (r *Replay) advance() {
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// replayHead is the fixed-size head of a saved ring; slotTail follows
// each slot's state vector. binary.Write encodes their fields in
// declaration order, little-endian, with no padding.
type replayHead struct{ Cap, Next, Full uint64 }

type slotTail struct {
	Action int64
	Reward float64
}

// saveState serializes the ring: capacity, cursor, fill flag, and every
// stored transition. Unused slots write zero-length vectors, so the loaded
// ring recycles buffers exactly like the saved one did.
func (r *Replay) saveState(w io.Writer) error {
	le := binary.LittleEndian
	h := replayHead{Cap: uint64(len(r.buf)), Next: uint64(r.next)}
	if r.full {
		h.Full = 1
	}
	if err := binary.Write(w, le, &h); err != nil {
		return err
	}
	for i := range r.buf {
		t := &r.buf[i]
		if err := binary.Write(w, le, uint64(len(t.State))); err != nil {
			return err
		}
		if err := binary.Write(w, le, t.State); err != nil {
			return err
		}
		if err := binary.Write(w, le, slotTail{int64(t.Action), t.Reward}); err != nil {
			return err
		}
	}
	return nil
}

// loadState restores a ring saved with saveState. The capacity must match.
func (r *Replay) loadState(rd io.Reader) error {
	le := binary.LittleEndian
	var h replayHead
	if err := binary.Read(rd, le, &h); err != nil {
		return err
	}
	if int(h.Cap) != len(r.buf) {
		return fmt.Errorf("rl: replay state capacity %d, ring has %d", h.Cap, len(r.buf))
	}
	if int(h.Next) >= len(r.buf) || h.Full > 1 {
		return fmt.Errorf("rl: implausible replay state (next=%d full=%d)", h.Next, h.Full)
	}
	r.next, r.full = int(h.Next), h.Full == 1
	for i := range r.buf {
		t := &r.buf[i]
		var n uint64
		if err := binary.Read(rd, le, &n); err != nil {
			return err
		}
		if n > 1<<24 {
			return fmt.Errorf("rl: implausible transition vector length %d", n)
		}
		if uint64(cap(t.State)) >= n {
			t.State = t.State[:n]
		} else {
			t.State = make([]float64, n)
		}
		if err := binary.Read(rd, le, t.State); err != nil {
			return err
		}
		var tail slotTail
		if err := binary.Read(rd, le, &tail); err != nil {
			return err
		}
		t.Action, t.Reward = int(tail.Action), tail.Reward
	}
	return nil
}

// Sample draws n transitions uniformly at random (with replacement) into
// dst, which it returns resized. It panics if the memory is empty.
func (r *Replay) Sample(dst []Transition, n int, rng *xrand.Rand) []Transition {
	m := r.Len()
	if m == 0 {
		panic("rl: sampling from empty replay memory")
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, r.buf[rng.Intn(m)])
	}
	return dst
}
