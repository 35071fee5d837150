package fleet

// Scheduler suite: Run's workers claim job positions within its bounds
// and emit the results in order, one emit call at a time; Run stops
// claims on cancel and is the watchdog. The jobs are real (a cheap
// attack on the baseline, repeated, or the handcrafted suite); the
// runner's beforeJob hook slows, counts or hangs them.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// schedRunner is a runner over n stack-smash jobs on the baseline, on
// the given number of workers, with the given job timeout (0 = none).
func schedRunner(t *testing.T, n, workers int, timeout time.Duration) *Runner {
	t.Helper()
	r, err := NewRunner(newPipeline(t), BatchSpec{
		Matrix: MatrixSpec{NoApps: true, Scenarios: []string{"stack-smash"}, Defenses: []string{"baseline"}, Repeat: n},
		Exec:   ExecSpec{Workers: workers, JobTimeout: Duration(timeout)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.jobs) != n {
		t.Fatalf("%d jobs, want %d", len(r.jobs), n)
	}
	return r
}

// collect runs the given positions and returns what Run emitted, in
// emission order, with whether it was interrupted.
func collect(t *testing.T, r *Runner, indices []int, cancel <-chan struct{}) ([]JobResult, bool) {
	t.Helper()
	var got []JobResult
	rep, interrupted, err := r.Run(indices, cancel, func(jr JobResult) { got = append(got, jr) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(got) {
		t.Fatalf("report counts %d jobs, %d emitted", rep.Jobs, len(got))
	}
	return got, interrupted
}

// waitFor polls count until it returns want, and fails naming the count
// it last saw if that takes more than 5 s.
func waitFor(t *testing.T, count func() int, want int, what string) {
	t.Helper()
	if got, ok := poll(count, want); !ok {
		t.Fatalf("%s: %d, want %d", what, got, want)
	}
}

// poll polls count until it returns want, for at most 5 s, and returns
// the count it last saw and whether that is want. It does not fail the
// test, so unlike waitFor it may run inside emit, which may be called
// on a worker goroutine.
func poll(count func() int, want int) (got int, ok bool) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got = count(); got == want {
			return got, true
		}
		if time.Now().After(deadline) {
			return got, false
		}
		time.Sleep(time.Millisecond)
	}
}

// spin busy-waits for d: the jobs and emit calls it lengthens last
// microseconds, far below time.Sleep's granularity.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// workerGoroutines counts the goroutines inside Runner.work, of any
// runner.
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "fleet.(*Runner).work(")
}

// TestRunInOrderDelivery: with one worker, with fewer workers than jobs
// and with more, Run emits every position in the order given, and each
// result equals the one-worker run's, although the hook makes jobs
// finish out of order.
func TestRunInOrderDelivery(t *testing.T) {
	const n = 40
	want, _ := collect(t, schedRunner(t, n, 1, 0), nil, nil)
	reversed := make([]int, n)
	for i := range reversed {
		reversed[i] = n - 1 - i
	}
	for _, workers := range []int{1, 3, 100} {
		for _, order := range [][]int{nil, reversed} {
			r := schedRunner(t, n, workers, 0)
			r.beforeJob = func(job int) { time.Sleep(time.Duration(job%3) * time.Millisecond) }
			got, interrupted := collect(t, r, order, nil)
			if interrupted || len(got) != n {
				t.Fatalf("workers=%d: %d results, interrupted %v", workers, len(got), interrupted)
			}
			for k, jr := range got {
				i := k
				if order != nil {
					i = order[k]
				}
				if jr != want[i] {
					t.Fatalf("workers=%d: position %d emitted %+v, want %+v", workers, k, jr, want[i])
				}
			}
		}
	}
}

// TestRunEmpty: an empty index list runs and emits nothing and is not
// an interruption.
func TestRunEmpty(t *testing.T) {
	r := schedRunner(t, 4, 4, 0)
	r.beforeJob = func(int) { t.Error("a job ran") }
	got, interrupted := collect(t, r, []int{}, nil)
	if len(got) != 0 || interrupted {
		t.Fatalf("emitted %d, interrupted %v", len(got), interrupted)
	}
}

// TestRunWindowBound: while the hook holds job 0, so nothing can be
// emitted, Run's workers claim at most 2×workers positions.
func TestRunWindowBound(t *testing.T) {
	const workers, window = 4, 2 * 4
	r := schedRunner(t, 200, workers, 0)
	var started atomic.Int64
	r.beforeJob = func(job int) {
		started.Add(1)
		if job == 0 {
			time.Sleep(50 * time.Millisecond)
			if n := started.Load(); n > window {
				t.Errorf("%d jobs started while job 0 held the frontier, window %d", n, window)
			}
		}
	}
	if got, _ := collect(t, r, nil, nil); len(got) != 200 {
		t.Fatalf("emitted %d of 200", len(got))
	}
}

// TestRunBacklog: while emit blocks on job 0, the workers claim and run
// exactly the backlog's worth of positions past it, and no more; once
// emit returns, every result is emitted in order.
func TestRunBacklog(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		backlog := backlogPerWorker * workers
		if workers == 1 {
			backlog = 1
		}
		n := backlog + 3*workers
		r := schedRunner(t, n, workers, 0)
		var started atomic.Int64
		r.beforeJob = func(int) { started.Add(1) }
		var got []JobResult
		rep, interrupted, err := r.Run(nil, nil, func(jr JobResult) {
			if got = append(got, jr); len(got) == 1 {
				if s, ok := poll(func() int { return int(started.Load()) }, backlog); !ok {
					t.Errorf("jobs started while emit held job 0: %d, want %d", s, backlog)
					return
				}
				time.Sleep(20 * time.Millisecond)
				if s := started.Load(); s != int64(backlog) {
					t.Errorf("workers=%d: %d jobs started while emit held job 0, backlog %d", workers, s, backlog)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if interrupted || len(got) != n || rep.Jobs != n {
			t.Fatalf("workers=%d: interrupted %v after %d of %d jobs (report %d)", workers, interrupted, len(got), n, rep.Jobs)
		}
		for k, jr := range got {
			if jr.Index != k || jr.Err != "" {
				t.Fatalf("workers=%d: position %d emitted job %d (error %q)", workers, k, jr.Index, jr.Err)
			}
		}
	}
}

// TestRunPoolsHoldOneMachine: jobs of one pool that are 2×workers or
// more positions apart never run at once, so a pool whose jobs lie
// farther apart holds one machine, however often the batch runs on a
// shared Warm. The handcrafted suite × 4 columns puts a pool's jobs 24
// positions apart, so 24 pools hold 24 machines at 1, 2 and 4 workers;
// Generate(1, 64) puts a (victim, defense) pool's jobs at least 4 apart,
// so its 44 pools hold 44 at 1 and 2 workers.
func TestRunPoolsHoldOneMachine(t *testing.T) {
	p := newPipeline(t)
	for _, c := range []struct {
		name    string
		matrix  MatrixSpec
		workers []int
		runs    int
		pools   int
	}{
		{"handcrafted", MatrixSpec{NoApps: true, Repeat: 10}, []int{1, 2, 4}, 20, 24},
		{"generated", MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 64}}, []int{1, 2}, 8, 44},
	} {
		warm := NewWarm()
		for _, workers := range c.workers {
			r, err := NewRunnerWarm(p, BatchSpec{Matrix: c.matrix, Exec: ExecSpec{Workers: workers}}, warm)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < c.runs; run++ {
				rep, _, err := r.Run(nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failures != 0 {
					t.Fatalf("%s: %d jobs failed", c.name, rep.Failures)
				}
			}
			if got := warm.Stats().Machines; got != c.pools {
				t.Fatalf("%s, workers=%d: %d machines in %d pools", c.name, workers, got, c.pools)
			}
		}
	}
}

// TestRunPoolBound: a job that holds the oldest position back stops only
// the claims of its own pool. The handcrafted suite × 4 columns × 3
// repeats puts each of its 24 pools' jobs 24 positions apart, so while
// the hook holds job 0 exactly positions 0–23 start, at 2 and at 4
// workers, far past the 2×workers in-flight window; position 24, job
// 0's pool again, starts only once job 0 returns.
func TestRunPoolBound(t *testing.T) {
	const pools = 24
	p := newPipeline(t)
	for _, workers := range []int{2, 4} {
		r, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{NoApps: true, Repeat: 3}, Exec: ExecSpec{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if r.pools != pools || len(r.jobs) != 3*pools {
			t.Fatalf("%d pools and %d jobs, want %d and %d", r.pools, len(r.jobs), pools, 3*pools)
		}
		for i, c := range r.cells {
			if int(c.id) != i%pools {
				t.Fatalf("job %d runs in pool %d, want %d", i, c.id, i%pools)
			}
		}
		release := make(chan struct{})
		var releaseOnce sync.Once
		defer releaseOnce.Do(func() { close(release) })
		var started atomic.Int64
		r.beforeJob = func(job int) {
			started.Add(1)
			switch job {
			case 0:
				<-release
			case pools:
				select {
				case <-release:
				default:
					t.Errorf("workers=%d: job %d started while job 0 of its pool ran", workers, job)
				}
			}
		}
		finished := make(chan []JobResult, 1)
		go func() {
			var got []JobResult
			r.Run(nil, nil, func(jr JobResult) { got = append(got, jr) })
			finished <- got
		}()
		waitFor(t, func() int { return int(started.Load()) }, pools, "jobs started while job 0 ran")
		time.Sleep(20 * time.Millisecond)
		if s := started.Load(); s != pools {
			t.Fatalf("workers=%d: %d jobs started while job 0 ran, want %d", workers, s, pools)
		}
		releaseOnce.Do(func() { close(release) })
		got := <-finished
		if len(got) != len(r.jobs) {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), len(r.jobs))
		}
		for k, jr := range got {
			if jr.Index != k || jr.Err != "" {
				t.Fatalf("workers=%d: position %d emitted job %d (error %q)", workers, k, jr.Index, jr.Err)
			}
		}
	}
}

// TestRunEmitOneAtATime: whichever goroutines emit, emit is called once
// per position, in order and never twice at once, while jobs of
// jittered length finish out of order.
func TestRunEmitOneAtATime(t *testing.T) {
	p := newPipeline(t)
	for _, workers := range []int{1, 2, 4} {
		r, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{NoApps: true, Repeat: 20}, Exec: ExecSpec{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		r.beforeJob = func(job int) { spin(time.Duration(job*7%5) * 20 * time.Microsecond) }
		var inEmit, next atomic.Int64
		rep, interrupted, err := r.Run(nil, nil, func(jr JobResult) {
			if in := inEmit.Add(1); in != 1 {
				t.Errorf("workers=%d: %d emit calls at once", workers, in)
			}
			if pos := next.Add(1) - 1; int64(jr.Index) != pos {
				t.Errorf("workers=%d: position %d emitted job %d", workers, pos, jr.Index)
			}
			if jr.Index%3 == 0 {
				spin(20 * time.Microsecond)
			}
			inEmit.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.jobs); interrupted || next.Load() != int64(n) || rep.Jobs != n {
			t.Fatalf("workers=%d: interrupted %v after %d emitted of %d (report %d)", workers, interrupted, next.Load(), n, rep.Jobs)
		}
	}
}

// TestRunCancelPreClosed: a cancel closed before Run starts runs no job.
func TestRunCancelPreClosed(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	for _, workers := range []int{1, 4} {
		r := schedRunner(t, 20, workers, 0)
		var ran atomic.Int64
		r.beforeJob = func(int) { ran.Add(1) }
		got, interrupted := collect(t, r, nil, cancel)
		if len(got) != 0 || !interrupted || ran.Load() != 0 {
			t.Fatalf("workers=%d: emitted %d, interrupted %v, %d jobs ran", workers, len(got), interrupted, ran.Load())
		}
	}
}

// TestRunCancel: a cancel closed mid-run stops claims; the claimed jobs
// drain, and Run returns an interrupted prefix contiguous from the first
// position. There are more jobs than the backlog bound lets the workers
// claim before the close, so the run is interrupted. Each worker holds
// at most one claimed position it has not started, so at most workers
// jobs start after the close, and every job that ran is emitted. A
// cancel closed by emit stops every job not yet running, so one worker
// runs no job past the one emitted.
func TestRunCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 21 + backlogPerWorker*4 + 100
		r := schedRunner(t, n, workers, 0)
		var ran atomic.Int64
		r.beforeJob = func(int) { ran.Add(1) }
		cancel := make(chan struct{})
		var got []JobResult
		var ranAtClose int64
		rep, interrupted, err := r.Run(nil, cancel, func(jr JobResult) {
			if got = append(got, jr); len(got) == 21 {
				close(cancel)
				ranAtClose = ran.Load()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !interrupted || len(got) < 21 || rep.Jobs != len(got) {
			t.Fatalf("workers=%d: interrupted %v after %d jobs (report %d)", workers, interrupted, len(got), rep.Jobs)
		}
		if after := ran.Load() - ranAtClose; after > int64(workers) {
			t.Fatalf("workers=%d: %d jobs started after the cancel closed", workers, after)
		}
		if workers == 1 && len(got) != 21 || ran.Load() != int64(len(got)) {
			t.Fatalf("workers=%d: %d jobs ran, %d emitted, cancel closed at the 21st", workers, ran.Load(), len(got))
		}
		for k, jr := range got {
			if jr.Index != k || jr.Err != "" {
				t.Fatalf("workers=%d: position %d emitted job %d (error %q)", workers, k, jr.Index, jr.Err)
			}
		}
	}
}

// TestRunCancelExternal: a cancel closed from another goroutine, as a
// signal handler or a server stop closes it, ends every Run wherever it
// lands: before the first claim, between jobs, or after the last
// emission. Run returns, its emitted prefix is contiguous, and it is
// interrupted exactly when a position was not emitted.
func TestRunCancelExternal(t *testing.T) {
	const n, runs = 24, 200
	for _, workers := range []int{1, 2, 4} {
		r := schedRunner(t, n, workers, 0)
		for run := 0; run < runs; run++ {
			cancel := make(chan struct{})
			last := make(chan struct{})
			switch delay := time.Duration(run%6) * 25 * time.Microsecond; {
			case run%7 == 6:
				go func() { <-last; close(cancel) }()
			case delay == 0:
				go close(cancel)
			default:
				go func() { time.Sleep(delay); close(cancel) }()
			}
			type outcome struct {
				got         []JobResult
				interrupted bool
				err         error
			}
			finished := make(chan outcome, 1)
			go func() {
				var got []JobResult
				_, interrupted, err := r.Run(nil, cancel, func(jr JobResult) {
					if got = append(got, jr); len(got) == n {
						close(last)
					}
				})
				finished <- outcome{got, interrupted, err}
			}()
			var o outcome
			select {
			case o = <-finished:
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d run %d: Run did not return after cancel closed", workers, run)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.interrupted != (len(o.got) < n) {
				t.Fatalf("workers=%d run %d: interrupted %v after %d of %d jobs", workers, run, o.interrupted, len(o.got), n)
			}
			for k, jr := range o.got {
				if jr.Index != k || jr.Err != "" {
					t.Fatalf("workers=%d run %d: position %d emitted job %d (error %q)", workers, run, k, jr.Index, jr.Err)
				}
			}
		}
	}
}

// TestRunCancelComplete: a cancel closed with the last emission is a
// clean finish.
func TestRunCancelComplete(t *testing.T) {
	r := schedRunner(t, 10, 4, 0)
	cancel := make(chan struct{})
	var emitted int
	rep, interrupted, err := r.Run(nil, cancel, func(jr JobResult) {
		if emitted++; emitted == 10 {
			close(cancel)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted || rep.Jobs != 10 {
		t.Fatalf("interrupted %v after %d jobs, want a clean finish of 10", interrupted, rep.Jobs)
	}
}

// TestRunWatchdogReplacesWorker: a job hung past the timeout is one
// watchdog record at its place, and a replacement worker runs the other
// jobs; on one worker nothing else would run them. The hung job is let
// go mid-run, and its worker must then exit instead of taking more
// jobs, so no more of the other jobs than there are workers ever run
// at once.
func TestRunWatchdogReplacesWorker(t *testing.T) {
	const n = 40
	want, _ := collect(t, schedRunner(t, n, 1, 0), nil, nil)
	for _, workers := range []int{1, 2} {
		r := schedRunner(t, n, workers, 200*time.Millisecond)
		release := make(chan struct{})
		var releaseOnce sync.Once
		var running, peak atomic.Int64
		r.beforeJob = func(job int) {
			if job == 2 {
				<-release
				return
			}
			cur := running.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			if job == 10 {
				releaseOnce.Do(func() { close(release) })
			}
		}
		finished := make(chan []JobResult, 1)
		go func() {
			var got []JobResult
			r.Run(nil, nil, func(jr JobResult) { got = append(got, jr) })
			finished <- got
		}()
		var got []JobResult
		select {
		case got = <-finished:
		case <-time.After(10 * time.Second):
			releaseOnce.Do(func() { close(release) })
			t.Fatalf("workers=%d: Run did not finish while job 2 hung: nothing replaced its worker", workers)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, jr := range got {
			if i == 2 {
				if jr.Err != "watchdog: job exceeded the 200ms wall-clock limit" || jr.Job != r.jobs[2] {
					t.Fatalf("workers=%d: job 2: %+v, want the watchdog record", workers, jr)
				}
				continue
			}
			if jr != want[i] {
				t.Fatalf("workers=%d: job %d: %+v, want %+v", workers, i, jr, want[i])
			}
		}
		if p := peak.Load(); p > int64(workers) {
			t.Fatalf("%d jobs ran at once on %d workers: the abandoned worker kept taking jobs", p, workers)
		}
	}
}

// TestRunLeavesOnlyHungJob: once Run returns, its idle workers exit, and
// the only goroutine left is the hung job's, until its hook returns.
func TestRunLeavesOnlyHungJob(t *testing.T) {
	r := schedRunner(t, 20, 4, 100*time.Millisecond)
	release := make(chan struct{})
	r.beforeJob = func(job int) {
		if job == 1 {
			<-release
		}
	}
	// A job an earlier test hung may still be sleeping in its worker.
	waitFor(t, workerGoroutines, 0, "workers left by earlier tests")
	before := runtime.NumGoroutine()
	got, interrupted := collect(t, r, nil, nil)
	if interrupted || len(got) != 20 {
		t.Fatalf("%d results, interrupted %v", len(got), interrupted)
	}
	for i, jr := range got {
		if (jr.Err != "") != (i == 1) {
			t.Fatalf("job %d: error %q", i, jr.Err)
		}
	}
	waitFor(t, runtime.NumGoroutine, before+1, "goroutines after Run returned")
	if n := workerGoroutines(); n != 1 {
		t.Fatalf("%d workers after Run returned, want the hung job's alone", n)
	}
	close(release)
	waitFor(t, runtime.NumGoroutine, before, "goroutines after the hung job returned")
}
