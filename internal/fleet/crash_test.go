package fleet

// Crash-safety differential suite: every test here pins the same
// acceptance bar — a batch that was panicked, hung or killed at an
// arbitrary job index converges, after a journal resume, to a journal
// byte-identical to an uninterrupted clean run. Panics and hangs come
// from the runner's beforeJob hook, which only these tests set.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// journalRun writes the runner's journal through WriteJournal,
// cancelling after cancelAfter job lines (0 = cancel before dispatch,
// negative = never). The returned bytes end with an interrupted marker
// or the summary line, exactly as the CLI writes them.
func journalRun(t *testing.T, r *Runner, cancelAfter int) (data []byte, interrupted bool) {
	t.Helper()
	var cancel chan struct{}
	if cancelAfter >= 0 {
		cancel = make(chan struct{})
		if cancelAfter == 0 {
			close(cancel)
		}
	}
	var buf bytes.Buffer
	written := 0
	_, interrupted, err := r.WriteJournal(&buf, cancel, func(JobResult) {
		if written++; written == cancelAfter {
			close(cancel)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), interrupted
}

// resumeJournal parses a journal, re-runs its remaining jobs on a
// runner rebuilt from the header (no hook carried over — the resume
// contract), and returns the journal compacted the way -resume
// compacts it (WriteJournalFile).
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
	_, interrupted, err := r.Run(j.Remaining(), nil, func(jr JobResult) {
		j.Results[jr.Index] = jr
	})
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		t.Fatal("uncancelled resume reported interrupted")
	}
	merged, err := j.Merged()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	if err := WriteJournalFile(path, r.JournalHeader(), merged, Aggregate(merged, r.workers, 0)); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return compacted
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
	ran := 0
	_, interrupted, err = r.Run(remaining, cancel, func(jr JobResult) {
		if err := WriteNDJSONLine(buf, jr); err != nil {
			t.Error(err)
		}
		if ran++; ran == 1 {
			close(cancel)
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

// panicAt returns a beforeJob hook that panics at the given job
// indices, the way a real panic in the job body would surface.
func panicAt(jobs ...int) func(int) {
	set := map[int]bool{}
	for _, i := range jobs {
		set[i] = true
	}
	return func(job int) {
		if set[job] {
			panic(fmt.Sprintf("fault: injected panic at job %d", job))
		}
	}
}

// faultFromSeed draws panics distinct job indices from [0, jobs) via
// the same splitmix64 scramble the scenario generator uses, so a
// (seed, jobs) pair names the same indices on every platform.
func faultFromSeed(seed uint64, jobs, panics int) []int {
	var out []int
	taken := map[int]bool{}
	s := mix64(seed ^ mix64(1))
	for len(out) < panics && len(taken) < jobs {
		s += 0x9E3779B97F4A7C15
		i := int(mix64(s) % uint64(jobs))
		if !taken[i] {
			taken[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// mix64 is the splitmix64 finalizer (the scramble internal/scenario's
// generator stream uses).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TestFaultPanicConvergesAfterResume: panicking jobs become
// deterministic failure records (the batch completes), and a resume —
// a new runner, so the hook is gone — re-runs exactly those jobs and
// converges to the clean journal. The seeded case draws its panics
// over a 400-job generated batch.
func TestFaultPanicConvergesAfterResume(t *testing.T) {
	p := newPipeline(t)
	gen := BatchSpec{Matrix: MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 100}}}
	cases := []struct {
		name   string
		spec   BatchSpec
		panics func(jobs int) []int
	}{
		{"jobs-0-5", smallSpec(), func(int) []int { return []int{0, 5} }},
		{"seed-7-gen-100", gen, func(jobs int) []int { return faultFromSeed(7, jobs, 3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Exec.Workers = 4
			clean, err := NewRunner(p, spec)
			if err != nil {
				t.Fatal(err)
			}
			cleanJournal, _ := journalRun(t, clean, -1)

			faulted, err := NewRunner(p, spec)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.panics(len(faulted.jobs))
			faulted.beforeJob = panicAt(want...)
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
			for _, i := range want {
				if jr := j.Results[i]; jr.Err != fmt.Sprintf("panic: fault: injected panic at job %d", i) {
					t.Fatalf("job %d error = %q", i, jr.Err)
				}
			}
			if rem := j.Remaining(); !slices.Equal(rem, want) {
				t.Fatalf("Remaining() = %v, want %v", rem, want)
			}
			final := resumeJournal(t, p, data, 8, false)
			diffJournals(t, tc.name, cleanJournal, final)
		})
	}
}

// TestFaultTransientRetryInvisible pins that nothing retries: on one
// worker, so every job shares one machine pool, the hook runs exactly
// once per job, the panicking jobs are recorded as failures, and every
// other job line is byte-identical to the clean run's — a contained
// panic leaves nothing behind in the pool.
func TestFaultTransientRetryInvisible(t *testing.T) {
	p := newPipeline(t)
	spec := smallSpec()
	spec.Exec.Workers = 1
	clean, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	cleanJournal, _ := journalRun(t, clean, -1)
	cleanLines := bytes.SplitAfter(cleanJournal, []byte("\n"))

	r, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := make([]int, len(r.jobs))
	fault := panicAt(2, 6)
	r.beforeJob = func(job int) {
		mu.Lock()
		calls[job]++
		mu.Unlock()
		fault(job)
	}
	results, rep := runAll(t, r)
	for i, n := range calls {
		if n != 1 {
			t.Errorf("hook ran %d times for job %d, want once", n, i)
		}
	}
	if rep.Failures != 2 {
		t.Fatalf("run has %d failures, want 2", rep.Failures)
	}
	for i, jr := range results {
		if i == 2 || i == 6 {
			if !strings.HasPrefix(jr.Err, "panic: ") {
				t.Errorf("job %d error = %q, want a panic record", i, jr.Err)
			}
			continue
		}
		var line bytes.Buffer
		if err := WriteNDJSONLine(&line, jr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Bytes(), cleanLines[1+i]) {
			t.Errorf("job %d diverges from the clean run:\nwant: %sgot:  %s", i, cleanLines[1+i], line.Bytes())
		}
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
	hung, err := NewRunner(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 hangs until the test returns, so its worker outlives Run but
	// not the test.
	release := make(chan struct{})
	defer close(release)
	hung.beforeJob = func(job int) {
		if job == 3 {
			<-release
		}
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

// TestFaultSpecValidation: fault injection and the retry budget left
// the spec format, so the spec decoder refuses a spec that still
// carries either, naming the field.
func TestFaultSpecValidation(t *testing.T) {
	for body, field := range map[string]string{
		`{"matrix":{},"exec":{},"fault":{}}`:                           "fault",
		`{"matrix":{"apps":["LightSensor"]},"fault":{"panic_at":[0]}}`: "fault",
		`{"exec":{"job_timeout":"1m","max_retries":2}}`:                "max_retries",
		`{"exec":{"max_retries":-1}}`:                                  "max_retries",
	} {
		_, err := DecodeSpec(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("DecodeSpec(%s): err = %v, want an unknown-field error naming %q", body, err, field)
		}
	}
}

// TestFaultFromSeedDeterministic: the seeded draw behind the panic
// cases is a pure function of (seed, jobs, count), with distinct
// in-range indices.
func TestFaultFromSeedDeterministic(t *testing.T) {
	a := faultFromSeed(42, 100, 3)
	b := faultFromSeed(42, 100, 3)
	if len(a) != 3 {
		t.Fatalf("drew %d indices, want 3", len(a))
	}
	if !slices.Equal(a, b) {
		t.Fatalf("faultFromSeed not deterministic: %v vs %v", a, b)
	}
	for k, idx := range a {
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		if k > 0 && idx <= a[k-1] {
			t.Fatalf("indices %v not distinct and ascending", a)
		}
	}
	if c := faultFromSeed(43, 100, 3); slices.Equal(c, a) {
		t.Fatal("different seeds drew identical indices")
	}
	// More panics than jobs: every job drawn once, no infinite loop.
	if f := faultFromSeed(7, 3, 5); !slices.Equal(f, []int{0, 1, 2}) {
		t.Fatalf("overdrawn draw = %v, want [0 1 2]", f)
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

var errDiskFull = errors.New("disk full")

// failingWriter accepts its first lines Writes and fails every one
// after, counting the attempts.
type failingWriter struct {
	lines, writes int
	buf           bytes.Buffer
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.lines == 0 {
		return 0, errDiskFull
	}
	w.lines--
	return w.buf.Write(p)
}

// TestJournalWriteFailure: WriteJournal returns the first write error.
// A failed header runs no job. A failure on job line k leaves the header
// and the k lines before it, attempts no Write after it, and onJob has
// seen exactly the k jobs whose lines were written; a failed summary
// line is returned too.
func TestJournalWriteFailure(t *testing.T) {
	spec := smallSpec()
	spec.Exec.Workers = 4
	r, err := NewRunner(newPipeline(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := journalRun(t, r, -1)
	lines := bytes.SplitAfter(clean, []byte("\n"))
	n := len(r.jobs)

	var ran atomic.Int64
	r.beforeJob = func(int) { ran.Add(1) }
	w := &failingWriter{}
	if _, _, err := r.WriteJournal(w, nil, func(JobResult) { t.Error("onJob after a failed header") }); !errors.Is(err, errDiskFull) {
		t.Fatalf("failed header: err = %v, want %v", err, errDiskFull)
	}
	if ran.Load() != 0 || w.writes != 1 {
		t.Fatalf("failed header: %d jobs ran, %d writes attempted; want 0 and 1", ran.Load(), w.writes)
	}

	r.beforeJob = nil
	for _, k := range []int{0, 3, n - 1, n} { // k == n fails the summary line
		w := &failingWriter{lines: 1 + k}
		seen := 0
		_, _, err := r.WriteJournal(w, nil, func(JobResult) { seen++ })
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("failure at line %d: err = %v, want %v", k, err, errDiskFull)
		}
		if want := bytes.Join(lines[:1+k], nil); !bytes.Equal(w.buf.Bytes(), want) {
			t.Errorf("failure at line %d left:\n%s\nwant:\n%s", k, w.buf.Bytes(), want)
		}
		if w.writes != k+2 || seen != min(k, n) {
			t.Errorf("failure at line %d: %d writes attempted, onJob saw %d jobs; want %d and %d", k, w.writes, seen, k+2, min(k, n))
		}
	}
}
