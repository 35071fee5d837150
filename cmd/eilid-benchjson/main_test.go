package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: eilid
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulator_Throughput 	    4788	    538771 ns/op	       111.4 simMcycles/s
BenchmarkTable4/TempSensor-8         	       1	  12345678 ns/op	    853492 cycles-eilid	    812345 cycles-orig	         5.066 overhead-%	      2048 bytes-eilid
PASS
ok  	eilid	4.480s
goos: linux
BenchmarkSimulator_FleetMatrix-8 	      44	  56523807 ns/op	       460.0 jobs/s	        71.60 simMcycles/s
`

func TestParseBenchOutput(t *testing.T) {
	out, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if out.Goos != "linux" || out.Goarch != "amd64" || !strings.Contains(out.CPU, "Xeon") {
		t.Errorf("environment header not parsed: %+v", out)
	}
	if len(out.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(out.Benchmarks))
	}
	tp := out.Benchmarks[0]
	if tp.Name != "BenchmarkSimulator_Throughput" || tp.Iterations != 4788 || tp.NsPerOp != 538771 {
		t.Errorf("throughput entry wrong: %+v", tp)
	}
	if tp.Metrics["simMcycles/s"] != 111.4 {
		t.Errorf("throughput metric wrong: %+v", tp.Metrics)
	}
	t4 := out.Benchmarks[1]
	if t4.Name != "BenchmarkTable4/TempSensor" {
		t.Errorf("procs suffix not trimmed: %q", t4.Name)
	}
	if t4.Metrics["overhead-%"] != 5.066 || t4.Metrics["cycles-eilid"] != 853492 {
		t.Errorf("table4 metrics wrong: %+v", t4.Metrics)
	}
	fm := out.Benchmarks[2]
	if fm.Metrics["jobs/s"] != 460.0 {
		t.Errorf("fleet metrics wrong: %+v", fm.Metrics)
	}
}

func TestRunWritesFile(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	var out, errb strings.Builder
	code := run([]string{"-o", path}, strings.NewReader(sample), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Output
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(parsed.Benchmarks) != 3 {
		t.Fatalf("file has %d benchmarks, want 3", len(parsed.Benchmarks))
	}
	if parsed.Host.GoVersion == "" || parsed.Host.GOMAXPROCS < 1 || parsed.Host.NumCPU < 1 {
		t.Fatalf("host metadata not stamped: %+v", parsed.Host)
	}
}

// TestHostInfo: the stamp reflects the running toolchain, so a record
// produced on another machine is distinguishable from this one.
func TestHostInfo(t *testing.T) {
	h := hostInfo()
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want a go version string", h.GoVersion)
	}
	if h.GOMAXPROCS < 1 || h.NumCPU < 1 {
		t.Errorf("CPU counts not stamped: %+v", h)
	}
	// CPUModel is best-effort, but on Linux CI /proc/cpuinfo exists.
	if _, err := os.Stat("/proc/cpuinfo"); err == nil && h.CPUModel == "" {
		t.Error("CPUModel empty despite a readable /proc/cpuinfo")
	}
}

func TestRunNextSelectsFreeIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/BENCH_1.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	code := run([]string{"-next", "-o", dir}, strings.NewReader(sample), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	want := dir + "/BENCH_2.json"
	if got := strings.TrimSpace(out.String()); got != want {
		t.Fatalf("reported path %q, want %q", got, want)
	}
	raw, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	var parsed Output
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("BENCH_2.json is not valid JSON: %v", err)
	}
	if len(parsed.Benchmarks) != 3 {
		t.Fatalf("file has %d benchmarks, want 3", len(parsed.Benchmarks))
	}
	// The existing record must be untouched.
	if raw, _ := os.ReadFile(dir + "/BENCH_1.json"); string(raw) != "{}" {
		t.Fatal("-next overwrote BENCH_1.json")
	}
	// A second run with defaults scans the current directory; here just
	// confirm the next run in the same dir picks index 3.
	out.Reset()
	if code := run([]string{"-next", "-o", dir}, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("second -next run failed: %s", errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != dir+"/BENCH_3.json" {
		t.Fatalf("second run chose %q, want BENCH_3.json", got)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("PASS\n"), &out, &errb); code != 1 {
		t.Fatalf("exit %d on empty input, want 1", code)
	}
}

// TestRunRejectsStrayArgument: flag stops at the first non-flag
// argument, so a stray one would drop the -next and -o after it and
// print the record to stdout instead; the run is refused.
func TestRunRejectsStrayArgument(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	if code := run([]string{"stray", "-next", "-o", dir}, strings.NewReader(sample), &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("stray argument: printed output:\n%s", out.String())
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("stray argument: wrote %v (%v)", entries, err)
	}
}
