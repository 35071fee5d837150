// Package pool is the deterministic worker pool underneath the fleet
// runner: Stream runs n independent jobs on up to w workers and emits
// the results in job order, so the output is byte-identical regardless
// of scheduling. fleet.Runner.Run is its one caller outside tests —
// every batch of simulations, the attack sweep included, is a fleet
// batch — and the package imports nothing of the simulator.
//
// # Fault containment
//
// A panicking job must never hang or leak the pool. Every fn call runs
// under recover; when one panics, the pool stops dispatching new jobs,
// lets the in-flight ones finish, emits the deterministic prefix of
// results strictly before the lowest panicked job index, shuts all
// worker goroutines down, and then re-panics on the calling goroutine
// with a *PanicError identifying the job. Callers that want a panic to
// become an ordinary per-job failure record (the fleet runner does)
// must recover inside fn itself.
//
// emit callbacks must not panic: an emit panic unwinds the calling
// goroutine past the pool's drain loop and orphans the workers.
package pool

import (
	"fmt"
	"sync"
)

// PanicError is the value the pool re-panics with after containing a
// job panic: the lowest job index that panicked in the batch plus the
// original panic value. The message is deterministic as long as the
// panic value's formatting is.
type PanicError struct {
	Job   int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v", e.Job, e.Value)
}

// Stream runs fn for jobs 0, …, n-1 on up to workers goroutines and
// delivers each result to emit — on the calling goroutine, in job order
// — as soon as it and all its predecessors have completed, instead of
// materializing the full result slice. Dispatch is held to a window of
// 2×workers jobs beyond the last emitted one, so at most that many
// results are ever buffered — even when an early job is pathologically
// slow, an n-job matrix streams in O(workers) memory. emit must not
// call back into the pool, and must not panic.
//
// fn gets the worker's identity: worker is in [0, workers) (0 for
// every job when workers <= 1), and each worker runs its jobs one at a
// time on a single goroutine, so per-worker state — the fleet runner's
// watchdog timers — needs no locking. Which worker runs which job is
// scheduling-dependent; fn must produce identical results regardless.
//
// Closing cancel stops the pool handing out new jobs; it waits for
// every in-flight job to finish and emits their results, so the emitted
// prefix is always contiguous from job 0 and every emitted result is
// final. Stream returns how many jobs were emitted and whether the run
// was cut short. A nil cancel never fires; cancellation checks sit
// between jobs, so a job that never returns still needs an external
// watchdog (the fleet runner provides one).
func Stream[T any](n, workers int, cancel <-chan struct{}, fn func(worker, job int) T, emit func(i int, v T)) (emitted int, interrupted bool) {
	if n <= 0 {
		return 0, false
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-cancel:
				return i, true
			default:
			}
			v, pe := protect(0, i, fn)
			if pe != nil {
				panic(pe)
			}
			emit(i, v)
		}
		return n, false
	}
	type res struct {
		i  int
		v  T
		pe *PanicError
	}
	// tokens caps jobs dispatched but not yet emitted. The feeder
	// acquires before handing out an index; the emitter releases one
	// per emission, so the feeder can run at most window jobs ahead of
	// the in-order emission frontier.
	window := 2 * workers
	tokens := make(chan struct{}, window)
	idx := make(chan int)
	done := make(chan res, workers)
	// quit aborts dispatch the moment any job panics; the workers still
	// drain their in-flight jobs so nothing blocks on done.
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := range idx {
				v, pe := protect(w, i, fn)
				done <- res{i, v, pe}
			}
		}()
	}
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			// Give cancellation/abort priority over dispatch: a select
			// with multiple ready cases picks randomly, and a closed
			// cancel must stop the feeder even while tokens are free.
			select {
			case <-quit:
				return
			case <-cancel:
				return
			default:
			}
			select {
			case tokens <- struct{}{}:
			case <-quit:
				return
			case <-cancel:
				return
			}
			select {
			case idx <- i:
			case <-quit:
				return
			case <-cancel:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(done)
	}()

	pending := make(map[int]T)
	panicked := make(map[int]bool)
	var first *PanicError
	next := 0
	halted := false
	for r := range done {
		if r.pe != nil {
			panicked[r.i] = true
			if first == nil {
				close(quit)
			}
			if first == nil || r.pe.Job < first.Job {
				first = r.pe
			}
		} else {
			pending[r.i] = r.v
		}
		if halted {
			continue
		}
		for {
			if panicked[next] {
				// Everything before the lowest panicked job has been
				// emitted; nothing at or after it ever will be, which
				// keeps the emitted prefix deterministic.
				halted = true
				break
			}
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			emit(next, v)
			next++
			// Each emitted job deposited a token at dispatch, so this
			// receive can never block even after the feeder has quit.
			<-tokens
		}
	}
	if first != nil {
		panic(first)
	}
	return next, next < n
}

// protect runs one job under recover so a panicking fn can neither kill
// a worker goroutine nor abandon the done channel.
func protect[T any](worker, job int, fn func(worker, job int) T) (v T, pe *PanicError) {
	defer func() {
		if x := recover(); x != nil {
			pe = &PanicError{Job: job, Value: x}
		}
	}()
	v = fn(worker, job)
	return v, nil
}
