package main

import (
	"os"
	"strings"
	"testing"
)

func TestBenchStaticTables(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-table", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("table 1 produced no output")
	}
}

func TestBenchFigure10(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-figure", "10"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("figure 10 produced no output")
	}
}

func TestBenchTable4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 measurement in -short mode")
	}
	var out, errb strings.Builder
	if code := run([]string{"-table", "4", "-iters", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Table IV", "LightSensor", "Average"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	var out, errb strings.Builder
	code := run([]string{"-table", "1", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestBenchMemProfileFailureFailsRun(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-table", "1", "-memprofile", t.TempDir() + "/no/such/dir/mem.prof"}, &out, &errb)
	if code != 1 {
		t.Fatalf("unwritable -memprofile: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
}

func TestBenchNoSelection(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no selection: exit %d, want 2", code)
	}
}

// TestBenchStrayArgument: flag stops at the first non-flag argument, so
// a stray one would drop the -micro after it; the run is refused.
func TestBenchStrayArgument(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-table", "1", "stray", "-micro"}, &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("stray argument: printed output:\n%s", out.String())
	}
}

// TestBenchItersBelowOne: -iters counts compile runs to average, so 0
// or a negative count is a usage error rather than a silent default.
func TestBenchItersBelowOne(t *testing.T) {
	for _, iters := range []string{"0", "-3"} {
		var out, errb strings.Builder
		if code := run([]string{"-table", "4", "-iters", iters}, &out, &errb); code != 2 {
			t.Errorf("-iters %s: exit %d, want 2", iters, code)
		}
		if out.Len() != 0 {
			t.Errorf("-iters %s: printed output:\n%s", iters, out.String())
		}
		if !strings.Contains(errb.String(), "-iters must be >= 1") {
			t.Errorf("-iters %s: stderr %q", iters, errb.String())
		}
	}
}

// TestBenchRetiredWorkersFlag: Table IV measures its apps one after
// another, so the old -workers knob is an unknown flag.
func TestBenchRetiredWorkersFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-table", "4", "-iters", "1", "-workers", "4"}, &out, &errb); code != 2 {
		t.Errorf("-workers: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("-workers: printed output:\n%s", out.String())
	}
}
