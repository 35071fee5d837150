package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

func TestFleetSmallMatrix(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{
		"-apps", "LightSensor", "-scenarios", "stack-smash", "-workers", "4",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	// 1 app + 1 scenario, each across the 4 registered defenses.
	for _, want := range []string{"8 jobs", "LightSensor", "stack-smash", "detection matrix", "shadow", "critvar"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// parseNDJSON splits a journal stream into its header, per-job lines
// and summary line, validating every line is standalone JSON and that
// the journal framing is present.
func parseNDJSON(t *testing.T, raw []byte) (jobs []map[string]any, summary map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON stream has %d lines, want >= 2 (header + summary):\n%s", len(lines), raw)
	}
	var header map[string]any
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		switch v["journal"] {
		case "eilid-fleet":
			if i != 0 {
				t.Fatalf("header on line %d, want 0", i)
			}
			header = v
		case "summary":
			summary = v
		case nil:
			jobs = append(jobs, v)
		default:
			t.Fatalf("unexpected journal marker on line %d: %v", i, v["journal"])
		}
	}
	if header == nil {
		t.Fatalf("journal missing header line:\n%s", raw)
	}
	if header["fingerprint"] == "" || header["jobs"].(float64) != float64(len(jobs)) {
		t.Fatalf("bad header (have %d job lines): %+v", len(jobs), header)
	}
	return jobs, summary
}

// journalOf runs the CLI with args plus `-q -json <dir>/name` and
// returns the journal it wrote.
func journalOf(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	path := dir + "/" + name
	var out, errb strings.Builder
	if code := run(append(args, "-q", "-json", path), &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s\n%s", args, code, errb.String(), out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFleetVerifyAndJSON: the -json journal frames the batch (header,
// one line per job, a deterministic summary) and is byte-identical
// between -workers 1 and -workers 8 — the determinism check the
// command line offers.
func TestFleetVerifyAndJSON(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "TempSensor", "-no-scenarios", "-repeat", "2", "-defenses", "baseline,eilid"}
	seq := journalOf(t, dir, "w1.ndjson", append(matrix, "-workers", "1")...)
	par := journalOf(t, dir, "w8.ndjson", append(matrix, "-workers", "8")...)
	if string(seq) != string(par) {
		t.Errorf("journal differs between -workers 1 and -workers 8:\n%s\n%s", seq, par)
	}
	jobs, summary := parseNDJSON(t, par)
	if len(jobs) != 4 {
		t.Fatalf("got %d job lines, want 4", len(jobs))
	}
	if jobs[0]["name"] != "TempSensor" || jobs[0]["cycles"].(float64) == 0 {
		t.Fatalf("unexpected first result: %+v", jobs[0])
	}
	if summary["jobs"].(float64) != 4 || summary["failures"].(float64) != 0 {
		t.Fatalf("unexpected summary: %+v", summary)
	}
	for _, nondeterministic := range []string{"results", "workers", "wall_ms"} {
		if _, ok := summary[nondeterministic]; ok {
			t.Fatalf("summary line must not embed %q: %+v", nondeterministic, summary)
		}
	}
}

// TestFleetJSONStreamsDeterministically: a journal streamed by six
// workers, whose jobs finish out of order, is byte-identical to one
// streamed by a single worker.
func TestFleetJSONStreamsDeterministically(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "LightSensor", "-scenarios", "rop-chain"}
	seq := journalOf(t, dir, "w1.ndjson", append(matrix, "-workers", "1")...)
	par := journalOf(t, dir, "w6.ndjson", append(matrix, "-workers", "6")...)
	if string(seq) != string(par) {
		t.Errorf("journal differs between -workers 1 and -workers 6:\n%s\n%s", seq, par)
	}
	if jobs, _ := parseNDJSON(t, par); len(jobs) != 8 {
		t.Fatalf("got %d job lines, want 8", len(jobs))
	}
}

// TestFleetGeneratedDimension drives the CLI's -gen/-seed path: a
// fixed-seed generated-only batch exits clean, reports the dimension's
// diagnostics, and streams a journal that is byte-identical across
// worker counts.
func TestFleetGeneratedDimension(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name, workers string) ([]map[string]any, map[string]any, string) {
		t.Helper()
		path := dir + "/" + name
		var out, errb strings.Builder
		code := run([]string{
			"-no-apps", "-no-scenarios", "-gen", "24", "-seed", "9",
			"-workers", workers, "-q", "-json", path,
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s\n%s", code, errb.String(), out.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		jobs, summary := parseNDJSON(t, raw)
		return jobs, summary, string(raw)
	}

	jobs1, sum1, raw1 := runOnce("w1.ndjson", "1")
	_, _, raw6 := runOnce("w6.ndjson", "6")
	// The whole journal — header, job lines and summary — is pinned
	// byte-identical across worker counts; nothing is sliced off.
	if raw1 != raw6 {
		t.Error("journal differs between -workers 1 and -workers 6")
	}
	if len(jobs1) != 96 {
		t.Fatalf("got %d job lines, want 96 (24 scenarios x 4 defenses)", len(jobs1))
	}
	// The summary line carries the defense × family matrix; tally the
	// per-defense totals out of it.
	matrix, ok := sum1["matrix"].(map[string]any)
	if !ok || len(matrix) == 0 {
		t.Fatalf("summary missing matrix: %+v", sum1)
	}
	jobsOf := func(defense, field string) float64 {
		var n float64
		for _, col := range matrix {
			if cell, ok := col.(map[string]any)[defense].(map[string]any); ok {
				n += cell[field].(float64)
			}
		}
		return n
	}
	if jobsOf("eilid", "jobs") != 24 || jobsOf("baseline", "jobs") != 24 {
		t.Fatalf("lopsided matrix columns: %+v", matrix)
	}
	if n := jobsOf("eilid", "compromised"); n != 0 {
		t.Fatalf("%v EILID compromises in matrix: %+v", n, matrix)
	}
	for _, j := range jobs1 {
		if j["kind"] != "gen" {
			t.Fatalf("non-generated job in generated-only matrix: %+v", j)
		}
		if f, ok := j["family"].(string); !ok || f == "" {
			t.Fatalf("generated job missing family: %+v", j)
		}
		if v, ok := j["victim"].(string); !ok || v == "" {
			t.Fatalf("generated job missing victim: %+v", j)
		}
	}
}

// cutJournal writes the file a hard kill leaves behind after the first
// job of a batch: the clean journal's header and first job line, with
// no interrupted marker or summary.
func cutJournal(t *testing.T, clean, path string) {
	t.Helper()
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if err := os.WriteFile(path, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireSameJournal fails unless the journal at path is byte-identical
// to the clean run's.
func requireSameJournal(t *testing.T, clean, path string) {
	t.Helper()
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("resumed journal differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFleetCrashResumeCLI drives the full crash-safety loop through
// the CLI. A batch whose cancel channel is closed — what the first
// SIGINT does — exits 3, journals an interrupted marker and points at
// -resume; a journal cut to its header and first job line — what a hard
// kill leaves — resumes too. Both -resume runs compact the file to
// byte-identical with an uninterrupted run, and a second resume is a
// no-op.
func TestFleetCrashResumeCLI(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "LightSensor", "-scenarios", "stack-smash"}

	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run(append(matrix, "-workers", "4", "-q", "-json", clean), &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}

	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := fleet.NewRunner(p, fleet.BatchSpec{Matrix: fleet.MatrixSpec{
		Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	interrupted := dir + "/interrupted.ndjson"
	cancel := make(chan struct{})
	close(cancel)
	errb.Reset()
	if code := runBatch(runner, batchOpts{jsonOut: interrupted, quiet: true}, cancel, &out, &errb); code != 3 {
		t.Fatalf("interrupted run: exit %d, want 3; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-resume "+interrupted) {
		t.Errorf("interrupted run did not point at -resume:\n%s", errb.String())
	}
	raw, err := os.ReadFile(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"journal":"interrupted"`) {
		t.Fatalf("interrupted journal missing marker:\n%s", raw)
	}

	killed := dir + "/killed.ndjson"
	cutJournal(t, clean, killed)
	for _, path := range []string{interrupted, killed} {
		out.Reset()
		errb.Reset()
		if code := run([]string{"-resume", path, "-workers", "8", "-q"}, &out, &errb); code != 0 {
			t.Fatalf("resume %s: exit %d, stderr: %s\n%s", path, code, errb.String(), out.String())
		}
		requireSameJournal(t, clean, path)
	}

	out.Reset()
	if code := run([]string{"-resume", killed, "-q"}, &out, &errb); code != 0 {
		t.Fatalf("second resume: exit %d", code)
	}
	if !strings.Contains(out.String(), "already complete") {
		t.Errorf("second resume did not report completion:\n%s", out.String())
	}
}

// cancelOnRow closes cancel at the first table row written to it: the
// stdout of a resume that is not quiet gets a progress line, the table
// header and then one row per job, so on one worker the resume stops
// after its first job.
type cancelOnRow struct {
	cancel chan struct{}
	closed bool
}

func (c *cancelOnRow) Write(p []byte) (int, error) {
	if !c.closed && len(p) > 0 && p[0] >= '0' && p[0] <= '9' {
		close(c.cancel)
		c.closed = true
	}
	return len(p), nil
}

// TestFleetCrashResumeCLITornTail: a resume of a journal whose last
// line a crash cut short appends on a line of its own. The journal is
// cut to its header, ten job lines and either the first 40 bytes of the
// twelfth line (a torn write) or the whole twelfth line without its
// newline; a resume interrupted after one job leaves its line and the
// interrupted marker behind it, and a second resume must still parse
// the file and compact it to the clean run's journal.
func TestFleetCrashResumeCLITornTail(t *testing.T) {
	dir := t.TempDir()
	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run([]string{"-gen", "20", "-seed", "1", "-no-apps", "-no-scenarios", "-q", "-json", clean}, &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	head := strings.Join(lines[:11], "")
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// completed is the interrupted marker's count: the jobs journalled
	// before the cut (the torn line is none) plus the one the resume ran.
	for _, c := range []struct {
		name, tail string
		completed  int
	}{
		{"torn-line", lines[11][:40], 11},
		{"lost-newline", strings.TrimSuffix(lines[11], "\n"), 12},
	} {
		name, path := c.name, dir+"/"+c.name+".ndjson"
		if err := os.WriteFile(path, []byte(head+c.tail), 0o644); err != nil {
			t.Fatal(err)
		}
		stop := &cancelOnRow{cancel: make(chan struct{})}
		errb.Reset()
		if code := runResume(p, path, fleet.ExecSpec{Workers: 1}, stop.cancel, false, stop, &errb); code != 3 {
			t.Fatalf("%s: interrupted resume: exit %d, want 3; stderr: %s", name, code, errb.String())
		}
		marker := fmt.Sprintf(`{"journal":"interrupted","completed":%d,`, c.completed)
		if raw, err := os.ReadFile(path); err != nil || !strings.Contains(string(raw), marker) {
			t.Fatalf("%s: interrupted resume did not journal exactly one job (%v):\n%s", name, err, raw)
		}
		errb.Reset()
		if code := run([]string{"-resume", path, "-q"}, &out, &errb); code != 0 {
			t.Fatalf("%s: second resume: exit %d, stderr: %s", name, code, errb.String())
		}
		requireSameJournal(t, clean, path)
	}
}

// TestFleetVerifyCancel: a one-worker batch honours a signal like a
// wider one. A pre-closed cancel stops it before dispatch: the journal
// gets the interrupted marker, the exit code is 3, and -resume
// completes the journal to a clean run's.
func TestFleetVerifyCancel(t *testing.T) {
	dir := t.TempDir()
	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run([]string{"-apps", "LightSensor", "-scenarios", "stack-smash", "-q", "-json", clean}, &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := fleet.NewRunner(p, fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"}},
		Exec:   fleet.ExecSpec{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/w1.ndjson"
	cancel := make(chan struct{})
	close(cancel)
	errb.Reset()
	if code := runBatch(runner, batchOpts{jsonOut: path, quiet: true}, cancel, &out, &errb); code != 3 {
		t.Fatalf("cancelled 1-worker batch: exit %d, want 3; stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"journal":"interrupted","completed":0`) {
		t.Fatalf("cancelled 1-worker journal missing the interrupted marker:\n%s", raw)
	}
	if code := run([]string{"-resume", path, "-q"}, &out, &errb); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
	}
	requireSameJournal(t, clean, path)
}

// failAfter passes its first lines Writes through to w and fails every
// one after.
type failAfter struct {
	lines int
	w     strings.Builder
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.lines == 0 {
		return 0, errors.New("disk full")
	}
	f.lines--
	return f.w.Write(p)
}

// TestFleetJournalWriteFailure: a journal that cannot be written fails
// the batch with exit 1 and names the error — whether the header or a
// later job line is lost — and nothing follows the lost line.
func TestFleetJournalWriteFailure(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := fleet.NewRunner(p, fleet.BatchSpec{Matrix: fleet.MatrixSpec{
		Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int{0, 3} {
		stdout := &failAfter{lines: lines}
		var errb strings.Builder
		if code := runBatch(runner, batchOpts{jsonOut: "-"}, nil, stdout, &errb); code != 1 {
			t.Errorf("journal failing after %d lines: exit %d, want 1", lines, code)
		}
		if !strings.Contains(errb.String(), "disk full") {
			t.Errorf("journal failing after %d lines: stderr does not name the error:\n%s", lines, errb.String())
		}
		if got := strings.Count(stdout.w.String(), "\n"); got != lines {
			t.Errorf("journal failing after %d lines kept %d lines", lines, got)
		}
	}
}

// TestFleetFaultInjectionCLI: a watchdog too short for any job fails
// the batch (exit 1), every job still gets a journal record — a
// watchdog failure for each one that lost the race — and -resume
// re-runs the failed jobs under the default watchdog, converging to
// the clean journal.
func TestFleetFaultInjectionCLI(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "LightSensor", "-scenarios", "stack-smash"}

	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run(append(matrix, "-workers", "4", "-q", "-json", clean), &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}

	faulted := dir + "/faulted.ndjson"
	errb.Reset()
	code := run(append(matrix, "-workers", "4", "-q", "-json", faulted, "-job-timeout", "1ns"), &out, &errb)
	if code != 1 {
		t.Fatalf("faulted run: exit %d, want 1; stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(faulted)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _ := parseNDJSON(t, raw)
	failed := 0
	for _, j := range jobs {
		if e, ok := j["error"].(string); ok {
			if !strings.HasPrefix(e, "watchdog: ") {
				t.Fatalf("job %v failed with %q, want a watchdog record", j["index"], e)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no watchdog record under -job-timeout 1ns:\n%s", raw)
	}

	errb.Reset()
	if code := run([]string{"-resume", faulted, "-q"}, &out, &errb); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
	}
	requireSameJournal(t, clean, faulted)
}

func TestFleetResumeFlagErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-resume", "x.ndjson", "-gen", "5"}, &out, &errb); code != 2 {
		t.Errorf("-resume with matrix flags: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-gen") {
		t.Errorf("conflict message does not name the flag:\n%s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-resume", "/nonexistent/x.ndjson"}, &out, &errb); code != 1 {
		t.Errorf("-resume of missing file: exit %d, want 1", code)
	}
}

func TestFleetFlagErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-apps", "NoSuchApp"}, &out, &errb); code != 2 {
		t.Errorf("unknown app: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	// flag stops at the first non-flag argument: every flag after a
	// stray one would be dropped, so the batch is refused instead.
	path := t.TempDir() + "/s.ndjson"
	if code := run([]string{"-apps", "TempSensor", "-no-scenarios", "stray", "-defenses", "eilid", "-q", "-json", path}, &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stray argument: a journal was written (%v)", err)
	}
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-workers") {
		t.Errorf("-h did not print usage:\n%s", errb.String())
	}
}

// TestFleetCoordinatorFlagValidation: nonsense execution knobs are
// exit-2 usage errors at parse time, and so are the flags of the
// multi-process coordinator and worker modes, the construct-per-job
// switch, fault injection, the retry budget, the simulated interrupt
// and the sequential replay, which no longer exist — a script still
// passing them must fail loudly rather than run a batch it did not ask
// for.
func TestFleetCoordinatorFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-job-timeout", "-1s"},
		{"-repeat", "0"},
		{"-gen", "-1"},
		// Removed coordinator mode and its process faults.
		{"-coordinator", "2"},
		{"-coordinator", "2", "-json", "x.ndjson"},
		{"-json", "x.ndjson", "-fault-kill-worker", "0@1"},
		{"-json", "x.ndjson", "-fault-wedge-worker", "0@2"},
		{"-worker-via", "sh -c"},
		// Removed worker mode.
		{"-shard", "0:4"},
		{"-journal", "x.ndjson"},
		{"-shard", "0:4", "-journal", "x.ndjson"},
		{"-gen", "4", "-no-apps", "-no-scenarios", "-stall-after", "2"},
		{"-resume", "x.ndjson", "-coordinator", "2"},
		{"-resume", "x.ndjson", "-shard", "0:4"},
		// Removed construct-per-job switch.
		{"-recycle=false"},
		{"-resume", "x.ndjson", "-recycle=false"},
		// Removed fault injection, retry budget and simulated interrupt.
		{"-retries", "2"},
		{"-fault-panic", "0,2"},
		{"-fault-transient", "1"},
		{"-fault-hang", "0", "-job-timeout", "1s"},
		{"-fault-seed", "7"},
		{"-fault-panics", "3"},
		{"-fault-transients", "3"},
		{"-interrupt-after", "1", "-json", "x.ndjson"},
		{"-apps", "LightSensor", "-no-scenarios", "-fault-hang", "0", "-job-timeout", "0"},
		{"-apps", "LightSensor", "-no-scenarios", "-fault-panic", "nope"},
		// Removed sequential replay.
		{"-verify"},
		{"-apps", "LightSensor", "-no-scenarios", "-verify"},
		{"-resume", "x.ndjson", "-verify"},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit %d, want 2\nstderr: %s", args, code, errb.String())
		}
	}
}

// TestFleetResumeReapsOrphanTemp: a force quit (second signal) exits
// mid-WriteFileAtomic without deferred cleanup and can strand
// `journal.tmp*` files next to the journal. A later resume — which
// rewrites the journal through the same atomic path — must reap them
// and still converge to the clean journal.
func TestFleetResumeReapsOrphanTemp(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "LightSensor", "-scenarios", "stack-smash"}

	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run(append(matrix, "-workers", "4", "-q", "-json", clean), &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}

	killed := dir + "/killed.ndjson"
	cutJournal(t, clean, killed)
	orphans := []string{killed + ".tmp", killed + ".tmp-867530"}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("torn rename leftovers"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	errb.Reset()
	if code := run([]string{"-resume", killed, "-workers", "4", "-q"}, &out, &errb); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("resume left orphan temp %s in place", p)
		}
	}
	requireSameJournal(t, clean, killed)
}
