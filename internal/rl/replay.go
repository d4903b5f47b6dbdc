package rl

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/xrand"
)

// Transition is one replacement decision stored for experience replay
// (§III-A): ⟨state, action, next state, reward⟩.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64 // nil/empty for terminal transitions
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

// Put stores a transition by copying state and nextState into the evicted
// slot's recycled buffers: after the ring has been around once, Put does no
// heap allocation. A nil or empty nextState marks a terminal transition
// (stored with length 0).
func (r *Replay) Put(state []float64, action int, reward float64, nextState []float64) {
	t := &r.buf[r.next]
	t.State = append(t.State[:0], state...)
	t.Action = action
	t.Reward = reward
	t.NextState = append(t.NextState[:0], nextState...)
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

// saveState serializes the ring: capacity, cursor, fill flag, and every
// stored transition. Unused slots write zero-length vectors, so the loaded
// ring recycles buffers exactly like the saved one did.
func (r *Replay) saveState(w io.Writer) error {
	le := binary.LittleEndian
	if err := binary.Write(w, le, uint64(len(r.buf))); err != nil {
		return err
	}
	if err := binary.Write(w, le, uint64(r.next)); err != nil {
		return err
	}
	full := uint64(0)
	if r.full {
		full = 1
	}
	if err := binary.Write(w, le, full); err != nil {
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
		if err := binary.Write(w, le, int64(t.Action)); err != nil {
			return err
		}
		if err := binary.Write(w, le, t.Reward); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint64(len(t.NextState))); err != nil {
			return err
		}
		if err := binary.Write(w, le, t.NextState); err != nil {
			return err
		}
	}
	return nil
}

// loadState restores a ring saved with saveState. The capacity must match.
func (r *Replay) loadState(rd io.Reader) error {
	le := binary.LittleEndian
	var cap64, next64, full64 uint64
	if err := binary.Read(rd, le, &cap64); err != nil {
		return err
	}
	if int(cap64) != len(r.buf) {
		return fmt.Errorf("rl: replay state capacity %d, ring has %d", cap64, len(r.buf))
	}
	if err := binary.Read(rd, le, &next64); err != nil {
		return err
	}
	if err := binary.Read(rd, le, &full64); err != nil {
		return err
	}
	if int(next64) >= len(r.buf) || full64 > 1 {
		return fmt.Errorf("rl: implausible replay state (next=%d full=%d)", next64, full64)
	}
	r.next, r.full = int(next64), full64 == 1
	readVec := func(dst *[]float64) error {
		var n uint64
		if err := binary.Read(rd, le, &n); err != nil {
			return err
		}
		if n > 1<<24 {
			return fmt.Errorf("rl: implausible transition vector length %d", n)
		}
		if uint64(cap(*dst)) >= n {
			*dst = (*dst)[:n]
		} else {
			*dst = make([]float64, n)
		}
		return binary.Read(rd, le, *dst)
	}
	for i := range r.buf {
		t := &r.buf[i]
		if err := readVec(&t.State); err != nil {
			return err
		}
		var action int64
		if err := binary.Read(rd, le, &action); err != nil {
			return err
		}
		t.Action = int(action)
		if err := binary.Read(rd, le, &t.Reward); err != nil {
			return err
		}
		if err := readVec(&t.NextState); err != nil {
			return err
		}
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
