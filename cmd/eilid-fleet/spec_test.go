package main

// Spec-file suite: -dump-spec emits the canonical JSON form of every
// flag combination, -spec replays it byte-identically, and the
// conflict/decode error surface stays loud. These are the CLI halves
// of the round-trip contract internal/fleet/spec_test.go pins at the
// type level.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eilid/internal/fleet"
)

// suiteCombos are the matrix flag combinations the rest of the CLI
// suite runs — every one must round-trip flags → spec → JSON → spec
// without changing the batch it selects.
var suiteCombos = [][]string{
	{"-apps", "LightSensor", "-scenarios", "stack-smash", "-workers", "4"},
	{"-apps", "TempSensor", "-no-scenarios", "-workers", "8", "-repeat", "2", "-defenses", "baseline,eilid"},
	{"-apps", "LightSensor", "-scenarios", "rop-chain", "-workers", "6"},
	{"-no-apps", "-no-scenarios", "-gen", "24", "-seed", "9"},
	{"-apps", "LightSensor", "-no-scenarios", "-job-timeout", "30s"},
}

// dumpSpec runs `-dump-spec` for a flag combo and returns the decoded
// spec plus the raw JSON it printed.
func dumpSpec(t *testing.T, combo []string) (fleet.BatchSpec, []byte) {
	t.Helper()
	var out, errb strings.Builder
	if code := run(append(append([]string{}, combo...), "-dump-spec"), &out, &errb); code != 0 {
		t.Fatalf("dump-spec exit %d, stderr: %s", code, errb.String())
	}
	var spec fleet.BatchSpec
	dec := json.NewDecoder(strings.NewReader(out.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("dump-spec output does not decode: %v\n%s", err, out.String())
	}
	return spec, []byte(out.String())
}

// TestDumpSpecRoundTrip: for every suite flag combo, the dumped spec
// re-resolves to itself (idempotence through the CLI), re-marshals to
// the same document, and fingerprints identically to the flag-driven
// journal header.
func TestDumpSpecRoundTrip(t *testing.T) {
	for _, combo := range suiteCombos {
		t.Run(strings.Join(combo, " "), func(t *testing.T) {
			spec, raw := dumpSpec(t, combo)
			resolved, err := fleet.ResolveSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			again, err := json.MarshalIndent(resolved, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(again)+"\n" != string(raw) {
				t.Errorf("dumped spec is not a fixed point of resolve+marshal:\nfirst:\n%s\nsecond:\n%s", raw, again)
			}
			// A spec-file run must select the identical batch: same
			// fingerprint, hence same journal header, hence same jobs.
			fp, err := spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			fp2, err := resolved.Fingerprint()
			if err != nil || fp != fp2 {
				t.Fatalf("fingerprint drifted across resolution: %s vs %s (%v)", fp, fp2, err)
			}
		})
	}
}

// TestSpecFileByteIdenticalJournal is the CLI acceptance bar: a run
// driven by `-spec file.json` writes a journal byte-identical to the
// flag-driven run that produced the file. (The first suite combo keeps
// this fast; CI repeats the comparison from a cold process.)
func TestSpecFileByteIdenticalJournal(t *testing.T) {
	dir := t.TempDir()
	combo := suiteCombos[0]

	flagJournal := filepath.Join(dir, "flags.ndjson")
	var out, errb strings.Builder
	if code := run(append(append([]string{}, combo...), "-q", "-json", flagJournal), &out, &errb); code != 0 {
		t.Fatalf("flag-driven run exit %d, stderr: %s", code, errb.String())
	}

	_, raw := dumpSpec(t, combo)
	specFile := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(specFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	specJournal := filepath.Join(dir, "spec.ndjson")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-spec", specFile, "-q", "-json", specJournal}, &out, &errb); code != 0 {
		t.Fatalf("spec-driven run exit %d, stderr: %s", code, errb.String())
	}

	want, err := os.ReadFile(flagJournal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(specJournal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("spec-driven journal differs from flag-driven journal:\nflags:\n%s\nspec:\n%s", want, got)
	}
}

// TestSpecFlagErrors: a -spec file owns the matrix selection —
// combining it with the flags it replaces, feeding it garbage, a
// retired field, a second document or a negative watchdog, or pointing
// it nowhere are all loud exit-2 errors.
func TestSpecFlagErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	_, raw := dumpSpec(t, []string{"-apps", "LightSensor", "-no-scenarios"})
	if err := os.WriteFile(good, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unknown := write("unknown.json", `{"matrix":{},"exec":{},"bogus":1}`)
	// The construct-per-job switch, fault injection and the retry
	// budget left the spec format; a file that still carries one is
	// refused like any unknown field.
	noRecycle := write("no-recycle.json", `{"matrix":{},"exec":{"no_recycle":true}}`)
	fault := write("fault.json", `{"matrix":{"apps":["LightSensor"],"no_scenarios":true},"exec":{},"fault":{}}`)
	retries := write("retries.json", `{"matrix":{"apps":["LightSensor"],"no_scenarios":true},"exec":{"max_retries":2}}`)
	// A second document after a valid spec is refused, not ignored.
	trailing := write("trailing.json", string(raw)+`{"matrix":{"apps":["TempSensor"]},"typo_knob":1}`)
	garbage := write("garbage.json", "{not json")
	// A negative watchdog is refused by ResolveSpec, as -job-timeout is.
	negTimeout := write("neg-timeout.json", `{"matrix":{"apps":["LightSensor"],"no_scenarios":true},"exec":{"job_timeout":"-1s"}}`)
	dupes := write("dupes.json", `{"matrix":{"no_apps":true,"scenarios":["stack-smash","stack-smash"],"defenses":["eilid"]}}`)

	cases := []struct {
		args []string
		want string // substring required in stderr
	}{
		{[]string{"-spec", good, "-apps", "LightSensor"}, "drop -apps"},
		{[]string{"-spec", good, "-gen", "5"}, "drop -gen"},
		{[]string{"-spec", unknown}, "bogus"},
		{[]string{"-spec", noRecycle}, "no_recycle"},
		{[]string{"-spec", fault}, `"fault"`},
		{[]string{"-spec", retries}, "max_retries"},
		{[]string{"-spec", trailing}, "trailing data"},
		{[]string{"-spec", garbage}, "spec"},
		{[]string{"-spec", negTimeout}, "job_timeout"},
		{[]string{"-spec", negTimeout, "-dump-spec"}, "job_timeout"},
		{[]string{"-spec", good, "-job-timeout", "-1s"}, "job_timeout"},
		{[]string{"-spec", filepath.Join(dir, "missing.json")}, "spec"},
		// A name listed twice is refused, as an unknown name is.
		{[]string{"-no-apps", "-scenarios", "stack-smash,stack-smash", "-defenses", "eilid"}, `scenario "stack-smash" listed twice`},
		{[]string{"-apps", "LightSensor,LightSensor", "-no-scenarios"}, `application "LightSensor" listed twice`},
		{[]string{"-apps", "LightSensor", "-no-scenarios", "-defenses", "eilid,baseline,eilid"}, `defense "eilid" listed twice`},
		{[]string{"-no-apps", "-scenarios", "stack-smash,stack-smash", "-dump-spec"}, "listed twice"},
		{[]string{"-spec", dupes}, "listed twice"},
	}
	for _, tc := range cases {
		var out, errb strings.Builder
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit %d, want 2\nstderr: %s", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("run(%v) stderr missing %q:\n%s", tc.args, tc.want, errb.String())
		}
	}

	// Execution flags are run-site knobs, not batch identity: they are
	// allowed next to -spec and override the file's values.
	spec, code := assembleSpec(specFlags{
		specFile: good, workers: 3,
		set: map[string]bool{"workers": true},
	}, os.Stderr)
	if code != 0 {
		t.Fatalf("explicit -workers next to -spec rejected (exit %d)", code)
	}
	if spec.Exec.Workers != 3 {
		t.Errorf("explicit -workers did not override the spec file: %+v", spec.Exec)
	}
}
