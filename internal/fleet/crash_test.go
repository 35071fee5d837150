package fleet

// Crash-safety differential suite: every test here pins the same
// acceptance bar — a batch that was panicked, transiently faulted, hung
// or killed at an arbitrary job index converges, after in-run retry or
// a journal resume, to a journal byte-identical to an uninterrupted
// clean run.

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"eilid/internal/core"
)

// smallSpec is the matrix the crash suite runs: one app and one attack
// across every registered defense column — 8 jobs, small enough to run
// many convergence variants, wide enough to cover every column.
func smallSpec() BatchSpec {
	return BatchSpec{Matrix: MatrixSpec{Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"}}}
}

// journalRun executes the runner while writing a journal, cancelling
// after cancelAfter emitted results (0 = cancel before dispatch,
// negative = never). The returned bytes end with an interrupted marker
// or the summary line, exactly as the CLI writes them.
func journalRun(t *testing.T, r *Runner, cancelAfter int) (data []byte, interrupted bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJournalHeader(&buf, r.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	var cancel chan struct{}
	var once sync.Once
	if cancelAfter >= 0 {
		cancel = make(chan struct{})
		if cancelAfter == 0 {
			once.Do(func() { close(cancel) })
		}
	}
	emitted := 0
	rep, interrupted, err := r.RunStreamCancel(cancel, func(jr JobResult) {
		if err := WriteNDJSONLine(&buf, jr); err != nil {
			t.Error(err)
		}
		emitted++
		if cancelAfter > 0 && emitted == cancelAfter {
			once.Do(func() { close(cancel) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		if err := WriteJournalInterrupted(&buf, emitted, len(r.jobs)); err != nil {
			t.Fatal(err)
		}
	} else if err := WriteJournalSummary(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), interrupted
}

// resumeJournal parses a journal, re-runs its remaining jobs on a
// runner rebuilt from the header (no faults carried over — the resume
// contract), and returns the compacted canonical journal.
func resumeJournal(t *testing.T, p *core.Pipeline, data []byte, workers int, noRecycle bool) []byte {
	t.Helper()
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	spec := j.Header.Spec.Batch()
	spec.Exec.Workers = workers
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	r.noRecycle = noRecycle
	if err := j.Validate(r); err != nil {
		t.Fatal(err)
	}
	interrupted, err := r.RunIndices(j.Remaining(), nil, func(jr JobResult) {
		j.Results[jr.Index] = jr
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		t.Fatal("uncancelled RunIndices reported interrupted")
	}
	merged, err := j.Merged()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJournalHeader(&buf, r.JournalHeader()); err != nil {
		t.Fatal(err)
	}
	for _, jr := range merged {
		if err := WriteNDJSONLine(&buf, jr); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteJournalSummary(&buf, Aggregate(merged, r.workers, 0)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffJournals reports the first differing line — far more useful than
// a byte offset when a convergence test fails.
func diffJournals(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b []byte
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: journal line %d diverges:\nwant: %s\ngot:  %s", label, i, a, b)
		}
	}
	t.Fatalf("%s: journals differ", label)
}

// TestCrashResumeByteIdentical is the tentpole differential: kill the
// batch after K results — including K=0 (nothing ran) and K=n-1 (one
// job short) — then resume with various worker counts and recycling
// modes; the compacted journal must be byte-identical to an
// uninterrupted run, every defense column included. A hard kill is
// simulated deterministically by chopping the journal to its first K
// job lines (a real SIGKILL leaves exactly that file, interrupted
// marker not included).
func TestCrashResumeByteIdentical(t *testing.T) {
	p := newPipeline(t)
	cleanRunner, err := NewRunner(p, func() BatchSpec { s := smallSpec(); s.Exec.Workers = 4; return s }())
	if err != nil {
		t.Fatal(err)
	}
	clean, interrupted := journalRun(t, cleanRunner, -1)
	if interrupted {
		t.Fatal("clean run reported interrupted")
	}
	n := len(cleanRunner.jobs)
	if n != 8 {
		t.Fatalf("small matrix has %d jobs, want 8 (2 cells x 4 defenses)", n)
	}
	// lines[0] is the header, lines[1..n] the job lines in job order.
	lines := bytes.SplitAfter(clean, []byte("\n"))
	killedAt := func(k int) []byte { return bytes.Join(lines[:1+k], nil) }
	cases := []struct {
		name          string
		killAt        int
		resumeWorkers int
		noRecycle     bool
	}{
		{"kill-at-0", 0, 1, false},
		{"kill-at-1", 1, 8, false},
		{"kill-mid", n / 2, 8, true},
		{"kill-at-n-1", n - 1, 1, false},
		{"kill-at-n-1-norecycle", n - 1, 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			final := resumeJournal(t, p, killedAt(tc.killAt), tc.resumeWorkers, tc.noRecycle)
			diffJournals(t, tc.name, clean, final)
		})
	}
}

// TestCrashResumeGracefulCancel exercises the cooperative path the
// SIGINT handler drives: a pre-closed cancel dispatches nothing, and a
// sequential run cancelled mid-batch drains, journals the interrupted
// marker, and resumes to convergence. (With wide worker windows a
// small batch may fully dispatch before the cancel lands — that run
// simply completes, which is also correct; the deterministic mid-batch
// kills are covered by TestCrashResumeByteIdentical's chopped
// journals.)
func TestCrashResumeGracefulCancel(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 4
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := journalRun(t, r, -1)

	data, interrupted := journalRun(t, r, 0)
	if !interrupted {
		t.Fatal("pre-closed cancel did not interrupt")
	}
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Results) != 0 {
		t.Fatalf("pre-closed cancel still journalled %d results", len(j.Results))
	}
	diffJournals(t, "cancel-at-0", clean, resumeJournal(t, p, data, 8, false))

	seqSpec := smallSpec()
	seqSpec.Exec.Workers = 1
	seq, err := NewRunner(p, seqSpec)
	if err != nil {
		t.Fatal(err)
	}
	data, interrupted = journalRun(t, seq, 1)
	if !interrupted {
		t.Fatal("sequential run cancelled after one result did not interrupt")
	}
	j, err = ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Results) >= len(seq.jobs) {
		t.Fatalf("cancelled sequential run journalled all %d results", len(j.Results))
	}
	diffJournals(t, "cancel-sequential", clean, resumeJournal(t, p, data, 4, false))
}

// TestCrashResumeInterruptedTwice: a resume that is itself killed
// appends its partial results (plus another interrupted marker) and a
// second resume still converges — the journal's append-safety.
func TestCrashResumeInterruptedTwice(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 1 // sequential: cancellation between jobs is guaranteed
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := journalRun(t, r, -1)

	data, interrupted := journalRun(t, r, 1)
	if !interrupted {
		t.Fatal("first run not interrupted")
	}
	// First resume: killed again after one more result; its lines are
	// appended to the journal the way the CLI appends them.
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	remaining := j.Remaining()
	if len(remaining) == 0 {
		t.Fatal("nothing left to resume")
	}
	buf := bytes.NewBuffer(data)
	cancel := make(chan struct{})
	var once sync.Once
	ran := 0
	interrupted, err = r.RunIndices(remaining, cancel, func(jr JobResult) {
		if err := WriteNDJSONLine(buf, jr); err != nil {
			t.Error(err)
		}
		ran++
		if ran == 1 {
			once.Do(func() { close(cancel) })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("cancelled resume not interrupted")
	}
	if err := WriteJournalInterrupted(buf, len(j.Results)+ran, j.Header.Jobs); err != nil {
		t.Fatal(err)
	}
	// Second resume completes and must converge.
	final := resumeJournal(t, p, buf.Bytes(), 8, false)
	diffJournals(t, "twice-interrupted", clean, final)
}

// TestFaultPanicConvergesAfterResume: injected panics become
// deterministic failure records (the batch completes), and a resume —
// which never re-applies faults — re-runs exactly those jobs and
// converges to the clean journal.
func TestFaultPanicConvergesAfterResume(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 4
	clean, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanJournal, _ := journalRun(t, clean, -1)

	spec.Fault = FaultSpec{PanicAt: []int{0, 5}}
	faulted, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, interrupted := journalRun(t, faulted, -1)
	if interrupted {
		t.Fatal("faulted run should complete, not interrupt")
	}
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Complete {
		t.Fatal("faulted journal missing summary line")
	}
	if jr := j.Results[0]; jr.Err != "panic: fault: injected panic at job 0" {
		t.Fatalf("job 0 error = %q", jr.Err)
	}
	if rem := j.Remaining(); len(rem) != 2 || rem[0] != 0 || rem[1] != 5 {
		t.Fatalf("Remaining() = %v, want [0 5]", rem)
	}
	final := resumeJournal(t, p, data, 8, false)
	diffJournals(t, "panic-faulted", cleanJournal, final)
}

// TestFaultTransientRetryInvisible: a transiently failing job is
// retried in-run and the journal is byte-identical to a clean run — no
// retry counts, no failure records, nothing leaks. With retry disabled
// the same fault is recorded; with FailCount exceeding the budget the
// job exhausts its attempts.
func TestFaultTransientRetryInvisible(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 4
	clean, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanJournal, _ := journalRun(t, clean, -1)

	spec.Fault = FaultSpec{TransientAt: []int{2, 6}}
	retried, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := journalRun(t, retried, -1)
	diffJournals(t, "transient-retried", cleanJournal, data)

	spec.Exec.MaxRetries = -1
	noRetry, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := noRetry.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !IsTransientErr(rep.Results[2].Err) || !IsTransientErr(rep.Results[6].Err) {
		t.Fatalf("retry disabled but transient faults not recorded: %q / %q",
			rep.Results[2].Err, rep.Results[6].Err)
	}

	spec.Exec.MaxRetries = 0 // back to DefaultMaxRetries (2)
	spec.Fault.FailCount = DefaultMaxRetries + 1
	exhausted, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = exhausted.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !IsTransientErr(rep.Results[2].Err) {
		t.Fatalf("FailCount %d should exhaust %d retries, got %q",
			DefaultMaxRetries+1, DefaultMaxRetries, rep.Results[2].Err)
	}
	if rep.Failures != 2 {
		t.Fatalf("exhausted run has %d failures, want 2", rep.Failures)
	}
}

// TestFaultWatchdogConvergesAfterResume: a hung job is abandoned by the
// watchdog as a deterministic failure (the batch neither hangs nor
// loses other jobs), and a resume re-runs it clean to convergence.
func TestFaultWatchdogConvergesAfterResume(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 2
	clean, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanJournal, _ := journalRun(t, clean, -1)

	spec.Exec.JobTimeout = Duration(250 * time.Millisecond)
	spec.Fault = FaultSpec{HangAt: []int{3}, HangFor: Duration(2 * time.Second)}
	hung, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := journalRun(t, hung, -1)
	j, err := ParseJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if jr := j.Results[3]; jr.Err != "watchdog: job exceeded the 250ms wall-clock limit" {
		t.Fatalf("job 3 error = %q", jr.Err)
	}
	// A heavily loaded host (or the race detector's slowdown) may trip
	// the watchdog on other jobs too; the contract is that job 3 is
	// among them, every abandoned job is a watchdog record, and the
	// resume still converges.
	for _, idx := range j.Remaining() {
		if jr := j.Results[idx]; !strings.HasPrefix(jr.Err, "watchdog: ") {
			t.Fatalf("remaining job %d has non-watchdog error %q", idx, jr.Err)
		}
	}
	final := resumeJournal(t, p, data, 4, false)
	diffJournals(t, "watchdog", cleanJournal, final)
}

// TestFaultSpecValidation: hang injection without a watchdog and
// out-of-range indices are NewRunner errors, not silent no-ops.
func TestFaultSpecValidation(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Fault = FaultSpec{HangAt: []int{0}}
	if _, err := NewRunner(p, spec); err == nil {
		t.Error("HangAt without JobTimeout accepted")
	}
	spec.Fault = FaultSpec{PanicAt: []int{999}}
	if _, err := NewRunner(p, spec); err == nil {
		t.Error("out-of-range fault index accepted")
	}
}

// TestFaultFromSeedDeterministic: the derived fault plan is a pure
// function of (seed, jobs, counts), with distinct in-range indices.
func TestFaultFromSeedDeterministic(t *testing.T) {
	a := FaultFromSeed(42, 100, 3, 4)
	b := FaultFromSeed(42, 100, 3, 4)
	if len(a.PanicAt) != 3 || len(a.TransientAt) != 4 {
		t.Fatalf("derived %d panics, %d transients; want 3, 4", len(a.PanicAt), len(a.TransientAt))
	}
	seen := map[int]bool{}
	for _, idx := range append(append([]int{}, a.PanicAt...), a.TransientAt...) {
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("index %d drawn twice", idx)
		}
		seen[idx] = true
	}
	for i := range a.PanicAt {
		if a.PanicAt[i] != b.PanicAt[i] {
			t.Fatal("FaultFromSeed not deterministic")
		}
	}
	for i := range a.TransientAt {
		if a.TransientAt[i] != b.TransientAt[i] {
			t.Fatal("FaultFromSeed not deterministic")
		}
	}
	if c := FaultFromSeed(43, 100, 3, 4); len(c.PanicAt) == 3 &&
		c.PanicAt[0] == a.PanicAt[0] && c.PanicAt[1] == a.PanicAt[1] && c.PanicAt[2] == a.PanicAt[2] {
		t.Fatal("different seeds drew identical panic indices")
	}
	// More faults than jobs: every job drawn once, no infinite loop.
	if f := FaultFromSeed(7, 3, 5, 5); len(f.PanicAt)+len(f.TransientAt) != 3 {
		t.Fatalf("overdrawn spec has %d+%d indices, want 3 total", len(f.PanicAt), len(f.TransientAt))
	}
}

// TestJournalParseAndValidate covers the journal reader's error
// surface: round-trip, torn tails, headerless streams, corruption,
// version and fingerprint mismatches.
func TestJournalParseAndValidate(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 4
	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := journalRun(t, r, -1)

	t.Run("round-trip", func(t *testing.T) {
		j, err := ParseJournal(clean)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Complete || j.Truncated || len(j.Remaining()) != 0 {
			t.Fatalf("complete journal parsed as complete=%v truncated=%v remaining=%v",
				j.Complete, j.Truncated, j.Remaining())
		}
		if err := j.Validate(r); err != nil {
			t.Fatal(err)
		}
		merged, err := j.Merged()
		if err != nil {
			t.Fatal(err)
		}
		if len(merged) != len(r.jobs) {
			t.Fatalf("merged %d results, want %d", len(merged), len(r.jobs))
		}
	})

	t.Run("torn-tail", func(t *testing.T) {
		// Drop the summary and chop into the last job line: the torn
		// line is ignored, the rest parses, and the affected job is
		// back in Remaining. (SplitAfter on a \n-terminated file yields
		// a trailing "" element, so the last job line is at len-3.)
		lines := bytes.SplitAfter(clean, []byte("\n"))
		torn := bytes.Join(lines[:len(lines)-3], nil)
		torn = append(torn, lines[len(lines)-3][:10]...)
		j, err := ParseJournal(torn)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Truncated || j.Complete {
			t.Fatalf("torn journal: truncated=%v complete=%v", j.Truncated, j.Complete)
		}
		if rem := j.Remaining(); len(rem) != 1 || rem[0] != len(r.jobs)-1 {
			t.Fatalf("Remaining() = %v, want [%d]", rem, len(r.jobs)-1)
		}
		final := resumeJournal(t, p, torn, 4, false)
		diffJournals(t, "torn-tail", clean, final)
	})

	t.Run("headerless", func(t *testing.T) {
		lines := bytes.SplitAfter(clean, []byte("\n"))
		if _, err := ParseJournal(bytes.Join(lines[1:], nil)); err == nil {
			t.Error("headerless stream accepted")
		}
	})

	t.Run("corrupt-middle", func(t *testing.T) {
		bad := bytes.Replace(clean, []byte(`"kind":"app"`), []byte(`"kind":app"`), 1)
		if _, err := ParseJournal(bad); err == nil {
			t.Error("corrupt middle line accepted")
		}
	})

	t.Run("retired-markers", func(t *testing.T) {
		// Shard, heartbeat, shard-done and fault lines are not part of
		// the format: a journal carrying one is rejected, never skipped.
		nl := bytes.IndexByte(clean, '\n') + 1
		for _, marker := range []string{
			`{"journal":"shard","lo":0,"hi":2}`,
			`{"journal":"heartbeat","done":0}`,
			`{"journal":"shard-done","done":2}`,
			`{"journal":"fault","mode":"stall","index":0}`,
		} {
			bad := append(append(append([]byte{}, clean[:nl]...), marker+"\n"...), clean[nl:]...)
			if _, err := ParseJournal(bad); err == nil || !strings.Contains(err.Error(), "unknown marker") {
				t.Errorf("journal with %s: err = %v, want an unknown-marker error", marker, err)
			}
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		bad := bytes.Replace(clean, []byte(`"version":1`), []byte(`"version":99`), 1)
		if _, err := ParseJournal(bad); err == nil {
			t.Error("future journal version accepted")
		}
	})

	t.Run("fingerprint-tamper", func(t *testing.T) {
		bad := bytes.Replace(clean, []byte(`"repeat":1`), []byte(`"repeat":2`), 1)
		if _, err := ParseJournal(bad); err == nil {
			t.Error("tampered spec accepted (fingerprint should mismatch)")
		}
	})

	t.Run("validate-wrong-matrix", func(t *testing.T) {
		j, err := ParseJournal(clean)
		if err != nil {
			t.Fatal(err)
		}
		other, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Apps: []string{"LightSensor"}, NoScenarios: true}})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Validate(other); err == nil {
			t.Error("journal validated against a different matrix")
		}
	})
}
