package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
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

func TestFleetVerifyAndJSON(t *testing.T) {
	path := t.TempDir() + "/report.ndjson"
	var out, errb strings.Builder
	code := run([]string{
		"-apps", "TempSensor", "-no-scenarios", "-workers", "8", "-repeat", "2",
		"-defenses", "baseline,eilid", "-verify", "-q", "-json", path,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "byte-identical") {
		t.Errorf("verify line missing:\n%s", out.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs, summary := parseNDJSON(t, raw)
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

// TestFleetJSONStreamsDeterministically: the streamed (non-verify)
// journal must be byte-identical to the verify path's, which in turn is
// pinned to the sequential replay — so streaming loses no determinism.
func TestFleetJSONStreamsDeterministically(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string, extra ...string) []byte {
		t.Helper()
		path := dir + "/" + name
		var out, errb strings.Builder
		args := append([]string{
			"-apps", "LightSensor", "-scenarios", "rop-chain", "-workers", "6",
			"-q", "-json", path,
		}, extra...)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s\n%s", code, errb.String(), out.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	streamed := runOnce("streamed.ndjson")
	verified := runOnce("verified.ndjson", "-verify")

	sJobs, sSum := parseNDJSON(t, streamed)
	vJobs, vSum := parseNDJSON(t, verified)
	if len(sJobs) != len(vJobs) {
		t.Fatalf("job line counts differ: %d vs %d", len(sJobs), len(vJobs))
	}
	for i := range sJobs {
		a, _ := json.Marshal(sJobs[i])
		b, _ := json.Marshal(vJobs[i])
		if string(a) != string(b) {
			t.Errorf("job line %d differs:\n%s\n%s", i, a, b)
		}
	}
	a, _ := json.Marshal(sSum)
	b, _ := json.Marshal(vSum)
	if string(a) != string(b) {
		t.Errorf("summaries differ:\n%s\n%s", a, b)
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

// TestFleetCrashResumeCLI drives the full crash-safety loop through
// the CLI: a batch interrupted after one result exits 3 and journals an
// interrupted marker; -resume completes it and compacts the file to
// byte-identical with an uninterrupted run; a second resume is a no-op.
func TestFleetCrashResumeCLI(t *testing.T) {
	dir := t.TempDir()
	matrix := []string{"-apps", "LightSensor", "-scenarios", "stack-smash"}

	clean := dir + "/clean.ndjson"
	var out, errb strings.Builder
	if code := run(append(matrix, "-workers", "4", "-q", "-json", clean), &out, &errb); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errb.String())
	}

	killed := dir + "/killed.ndjson"
	out.Reset()
	errb.Reset()
	code := run(append(matrix, "-workers", "1", "-interrupt-after", "1", "-q", "-json", killed), &out, &errb)
	if code != 3 {
		t.Fatalf("interrupted run: exit %d, want 3; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-resume") {
		t.Errorf("interrupted run did not point at -resume:\n%s", errb.String())
	}
	raw, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"journal":"interrupted"`) {
		t.Fatalf("interrupted journal missing marker:\n%s", raw)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-resume", killed, "-workers", "8", "-q"}, &out, &errb); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("resumed journal differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", want, got)
	}

	out.Reset()
	if code := run([]string{"-resume", killed, "-q"}, &out, &errb); code != 0 {
		t.Fatalf("second resume: exit %d", code)
	}
	if !strings.Contains(out.String(), "already complete") {
		t.Errorf("second resume did not report completion:\n%s", out.String())
	}
}

// TestFleetFaultInjectionCLI: injected panics fail the batch (exit 1)
// but every job still gets a journal record, and -resume re-runs the
// failed jobs clean — converging to the unfaulted journal.
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
	code := run(append(matrix, "-workers", "4", "-q", "-json", faulted, "-fault-panic", "0,2"), &out, &errb)
	if code != 1 {
		t.Fatalf("faulted run: exit %d, want 1; stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "injected panic at job 0") {
		t.Fatalf("faulted journal missing panic record:\n%s", raw)
	}

	errb.Reset()
	if code := run([]string{"-resume", faulted, "-q"}, &out, &errb); code != 0 {
		t.Fatalf("resume: exit %d, stderr: %s", code, errb.String())
	}
	want, _ := os.ReadFile(clean)
	got, _ := os.ReadFile(faulted)
	if string(want) != string(got) {
		t.Fatalf("resumed faulted journal differs from clean run:\nwant:\n%s\ngot:\n%s", want, got)
	}
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
	errb.Reset()
	if code := run([]string{"-apps", "LightSensor", "-no-scenarios", "-fault-hang", "0", "-job-timeout", "0"}, &out, &errb); code != 2 {
		t.Errorf("-fault-hang without watchdog: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-apps", "LightSensor", "-no-scenarios", "-fault-panic", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unparseable fault index: exit %d, want 2", code)
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
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-workers") {
		t.Errorf("-h did not print usage:\n%s", errb.String())
	}
}

// TestFleetCoordinatorFlagValidation: nonsense execution knobs are
// exit-2 usage errors at parse time, and so are the flags of the
// multi-process coordinator and worker modes, which no longer exist —
// a script still passing them must fail loudly rather than fall back
// to a single-process run.
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
	errb.Reset()
	if code := run(append(matrix, "-workers", "1", "-interrupt-after", "1", "-q", "-json", killed), &out, &errb); code != 3 {
		t.Fatalf("interrupted run: exit %d, want 3; stderr: %s", code, errb.String())
	}
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
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(killed)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatal("resumed journal differs from the uninterrupted run")
	}
}
