package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachIsolatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			var ran [8]atomic.Bool
			err := ForEach(8, func(i int) error {
				ran[i].Store(true)
				if i == 3 {
					panic("cell 3 exploded")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
			}
			if pe.Index != 3 || pe.Value != "cell 3 exploded" {
				t.Errorf("workers=%d: PanicError = {Index:%d Value:%v}", workers, pe.Index, pe.Value)
			}
			if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "cell 3 exploded") {
				t.Errorf("workers=%d: PanicError missing stack or message", workers)
			}
			// Lowest-index determinism: cells before the panic always ran.
			for i := 0; i < 3; i++ {
				if !ran[i].Load() {
					t.Errorf("workers=%d: cell %d did not run", workers, i)
				}
			}
			if helpersInUse() != 0 {
				t.Errorf("workers=%d: %d helper tokens leaked", workers, helpersInUse())
			}
		})
	}
}

func TestPanicBeatsLaterError(t *testing.T) {
	// A panic at index 1 must win over an ordinary error at index 5,
	// exactly as a serial run would have hit the panic first.
	err := ForEach(6, func(i int) error {
		if i == 1 {
			panic("early")
		}
		if i == 5 {
			return errors.New("late")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 1 {
		t.Fatalf("got %v, want panic at index 1", err)
	}
}

func TestStreamIsolatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			var emitted []int
			err := Stream(6,
				func(i int) (int, error) {
					if i == 4 {
						panic(fmt.Sprintf("boom %d", i))
					}
					return i * i, nil
				},
				func(i, v int) error {
					emitted = append(emitted, i)
					return nil
				})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Index != 4 {
				t.Fatalf("workers=%d: got %v, want panic at index 4", workers, err)
			}
			for idx, i := range emitted {
				if i != idx || i >= 4 {
					t.Fatalf("workers=%d: emitted %v", workers, emitted)
				}
			}
		})
	}
}

func TestMapAllKeepsGoodResults(t *testing.T) {
	withWorkers(t, 4, func() {
		out, errs := MapAll(6, func(i int) (int, error) {
			switch i {
			case 1:
				return 0, errors.New("bad cell")
			case 4:
				panic("panicking cell")
			}
			return i * 10, nil
		})
		for i := 0; i < 6; i++ {
			if i == 1 || i == 4 {
				if errs[i] == nil {
					t.Errorf("cell %d error lost", i)
				}
				continue
			}
			if errs[i] != nil || out[i] != i*10 {
				t.Errorf("cell %d: out=%d err=%v", i, out[i], errs[i])
			}
		}
		var pe *PanicError
		if !errors.As(errs[4], &pe) || pe.Index != 4 {
			t.Errorf("errs[4] = %v, want *PanicError{Index: 4}", errs[4])
		}
		if helpersInUse() != 0 {
			t.Errorf("%d helper tokens leaked", helpersInUse())
		}
	})
}

func TestStreamAllEmitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			var got []string
			err := StreamAll(5,
				func(i int) (int, error) {
					switch i {
					case 1:
						return 0, errors.New("erroring")
					case 3:
						panic("panicking")
					}
					return i, nil
				},
				func(i, v int, jobErr error) error {
					if jobErr != nil {
						got = append(got, fmt.Sprintf("%d:err", i))
					} else {
						got = append(got, fmt.Sprintf("%d:%d", i, v))
					}
					return nil
				})
			if err != nil {
				t.Fatalf("workers=%d: StreamAll = %v", workers, err)
			}
			want := "0:0 1:err 2:2 3:err 4:4"
			if s := strings.Join(got, " "); s != want {
				t.Errorf("workers=%d: emitted %q, want %q", workers, s, want)
			}
		})
	}
}

func TestDeadlineExpires(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	job := Deadline(10 * time.Millisecond)(func() error {
		<-release
		return nil
	})
	var de *DeadlineError
	if err := job(); !errors.As(err, &de) {
		t.Fatalf("got %v, want *DeadlineError", err)
	}
}

func TestDeadlinePassesFastJob(t *testing.T) {
	boom := errors.New("fast failure")
	if err := Deadline(time.Second)(func() error { return boom })(); !errors.Is(err, boom) {
		t.Errorf("got %v, want %v", boom, boom)
	}
	if err := Deadline(time.Second)(func() error { return nil })(); err != nil {
		t.Errorf("got %v, want nil", err)
	}
}

func TestDeadlineRecoversJobPanic(t *testing.T) {
	job := Deadline(time.Second)(func() error { panic("inside deadline goroutine") })
	var pe *PanicError
	if err := job(); !errors.As(err, &pe) || pe.Index != -1 {
		t.Fatalf("got %v, want *PanicError{Index: -1}", job())
	}
}

// TestSetWorkersDuringForEach drives SetWorkers concurrently with running
// grids and checks token accounting stays paired: every index runs and no
// helper tokens leak, whatever the interleaving. Run with -race.
func TestSetWorkersDuringForEach(t *testing.T) {
	defer SetWorkers(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
				SetWorkers(n%8 + 1)
				n++
			}
		}
	}()
	for round := 0; round < 50; round++ {
		var ran [32]atomic.Bool
		err := ForEach(32, func(i int) error {
			ran[i].Store(true)
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("round %d: index %d skipped", round, i)
			}
		}
		if h := helpersInUse(); h != 0 {
			t.Fatalf("round %d: %d helper tokens leaked", round, h)
		}
	}
	close(stop)
	wg.Wait()
}
