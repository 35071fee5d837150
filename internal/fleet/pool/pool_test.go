package pool

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStreamInOrderDelivery: every worker count — none (sequential),
// fewer than the jobs, more than the jobs — emits the same results in
// job order.
func TestStreamInOrderDelivery(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 100} {
		var got []int
		last := -1
		Stream(50, workers, nil, func(_, i int) int { return i * i }, func(i, v int) {
			if i != last+1 {
				t.Fatalf("workers=%d: emitted job %d after %d", workers, i, last)
			}
			last = i
			got = append(got, v)
		})
		if len(got) != 50 {
			t.Fatalf("workers=%d: emitted %d results, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestStreamEmpty(t *testing.T) {
	Stream(0, 4, nil, func(_, i int) int { return i }, func(int, int) {
		t.Fatal("emit called for empty job set")
	})
}

// TestStreamWindowBound: while the in-order frontier is stuck on a slow
// job 0, the feeder may dispatch at most 2×workers jobs in total, so
// the reorder buffer stays O(workers) no matter how large n is.
func TestStreamWindowBound(t *testing.T) {
	const workers = 4
	release := make(chan struct{})
	var maxStarted atomic.Int64
	maxStarted.Store(-1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	Stream(1000, workers, nil, func(_, i int) int {
		for {
			cur := maxStarted.Load()
			if int64(i) <= cur || maxStarted.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
		if i == 0 {
			<-release
			// Everything dispatched so far started while job 0 blocked
			// the frontier: it must fit the 2×workers window.
			if got := maxStarted.Load(); got >= 2*workers {
				t.Errorf("dispatched up to job %d while the frontier was stuck at 0 (window %d)", got, 2*workers)
			}
		}
		return i
	}, func(int, int) {})
}

// TestStreamPanicContained: a panicking job must not deadlock the
// emitter or leak worker goroutines (the pre-fix failure mode: the
// worker died without sending on done and the in-order emitter blocked
// forever). The pool emits the deterministic prefix before the lowest
// panicked index, drains, and re-panics with a *PanicError.
func TestStreamPanicContained(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		before := runtime.NumGoroutine()
		var emitted []int
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: expected *PanicError, got %v", workers, pe)
				}
				if pe.Job != 7 {
					t.Errorf("workers=%d: PanicError.Job = %d, want 7", workers, pe.Job)
				}
				if !strings.Contains(pe.Error(), "job 7 panicked: boom 7") {
					t.Errorf("workers=%d: message %q", workers, pe.Error())
				}
			}()
			Stream(50, workers, nil, func(_, i int) int {
				if i == 7 {
					panic("boom 7")
				}
				return i
			}, func(i, v int) { emitted = append(emitted, i) })
		}()
		// Exactly jobs 0..6 were emitted, in order.
		if len(emitted) != 7 {
			t.Fatalf("workers=%d: emitted %v, want 0..6", workers, emitted)
		}
		for i, v := range emitted {
			if v != i {
				t.Fatalf("workers=%d: emitted %v, want 0..6", workers, emitted)
			}
		}
		// All pool goroutines exited: no worker leaked on the abandoned
		// done channel.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("workers=%d: %d goroutines before, %d after panic drain", workers, before, got)
		}
	}
}

// TestStreamPanicLowestIndexWins: with several panicking jobs, the pool
// reports the lowest panicked index regardless of scheduling, and the
// emitted prefix stops strictly before it.
func TestStreamPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		last := -1
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Job != 3 {
					t.Fatalf("workers=%d: recover = %v, want PanicError at job 3", workers, pe)
				}
			}()
			Stream(40, workers, nil, func(_, i int) int {
				if i == 3 || i == 7 {
					panic(i)
				}
				return i
			}, func(i, v int) { last = i })
		}()
		if last > 2 {
			t.Errorf("workers=%d: emitted past the panicked job: last=%d", workers, last)
		}
	}
}

// TestStreamCancel: closing cancel stops dispatch, drains in-flight
// jobs, and returns an interrupted contiguous prefix.
func TestStreamCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cancel := make(chan struct{})
		var once atomic.Bool
		var got []int
		emitted, interrupted := Stream(500, workers, cancel,
			func(_, i int) int { return i * 3 },
			func(i, v int) {
				got = append(got, v)
				if i == 20 && once.CompareAndSwap(false, true) {
					close(cancel)
				}
			})
		if !interrupted {
			t.Fatalf("workers=%d: 500-job run not interrupted after cancel at 20", workers)
		}
		if emitted != len(got) || emitted < 21 || emitted == 500 {
			t.Fatalf("workers=%d: emitted=%d len(got)=%d", workers, emitted, len(got))
		}
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*3)
			}
		}
	}
}

// TestStreamCancelPreClosed: a cancel that is already closed when the
// run starts must dispatch nothing (kill-at-job-0).
func TestStreamCancelPreClosed(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	for _, workers := range []int{1, 4} {
		ran := atomic.Int64{}
		emitted, interrupted := Stream(100, workers, cancel,
			func(_, i int) int { ran.Add(1); return i },
			func(int, int) { t.Fatalf("workers=%d: emit on pre-cancelled run", workers) })
		if emitted != 0 || !interrupted {
			t.Fatalf("workers=%d: emitted=%d interrupted=%v, want 0/true", workers, emitted, interrupted)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: %d jobs ran after pre-closed cancel", workers, n)
		}
	}
}

// TestStreamCancelComplete: cancelling after the last emission is a
// clean completion, not an interruption.
func TestStreamCancelComplete(t *testing.T) {
	cancel := make(chan struct{})
	emitted, interrupted := Stream(10, 4, cancel,
		func(_, i int) int { return i },
		func(i, v int) {
			if i == 9 {
				close(cancel)
			}
		})
	if emitted != 10 || interrupted {
		t.Fatalf("emitted=%d interrupted=%v, want 10/false", emitted, interrupted)
	}
}
