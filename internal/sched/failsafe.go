package sched

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Job is a unit of work under a resilience policy.
type Job func() error

// Wrapper decorates a Job with one resilience policy.
type Wrapper func(Job) Job

// DeadlineError reports a job that exceeded its Deadline wrapper's limit.
type DeadlineError struct {
	Limit time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sched: job exceeded its %v deadline", e.Limit)
}

// Deadline bounds a job's wall-clock time: if the job has not returned
// within d, the wrapper returns *DeadlineError. Go cannot kill a running
// goroutine, so the abandoned job keeps running to completion in the
// background and its eventual result is discarded — the wrapper buys
// forward progress for the sweep, not resource reclamation. A panic in the
// job is recovered on the job goroutine (where the pool's own recovery
// cannot see it) and surfaces as a *PanicError with Index -1.
func Deadline(d time.Duration) Wrapper {
	return func(job Job) Job {
		return func() error {
			done := make(chan error, 1)
			go func() {
				defer func() {
					if v := recover(); v != nil {
						done <- &PanicError{Index: -1, Value: v, Stack: debug.Stack()}
					}
				}()
				done <- job()
			}()
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case err := <-done:
				return err
			case <-timer.C:
				return &DeadlineError{Limit: d}
			}
		}
	}
}
