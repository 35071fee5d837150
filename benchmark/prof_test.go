package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"eilid/internal/core.(*Machine).runLoop.func1":                                   "eilid/internal/core",
		"eilid/internal/fleet/pool.StreamIndexedCancel[go.shape.struct { eilid/x.Job }]": "eilid/internal/fleet/pool",
		"eilid/internal/cpu.(*CPU).RunBlocks":                                            "eilid/internal/cpu",
		"runtime.mallocgc":                                                               "runtime",
		"net/http.(*conn).serve":                                                         "net/http",
		"main.main":                                                                      "main",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// Attribution charges each sample to its innermost eilid module, and
// samples without one to gc, net or other.
func TestAttributeCannedStacks(t *testing.T) {
	samples := []stackSample{
		{count: 5, frames: []string{"runtime.mallocgc", "eilid/internal/cpu.(*CPU).Step", "eilid/internal/core.(*Machine).runLoop"}},
		{count: 2, frames: []string{"eilid/internal/casu.(*ShadowStack).classify", "eilid/internal/cpu.(*CPU).RunBlocks"}},
		{count: 1, frames: []string{"eilid/internal/fleet/pool.StreamIndexedCancel[...]", "eilid/internal/fleet.(*Runner).RunStream"}},
		{count: 1, frames: []string{"encoding/json.Marshal", "eilid/internal/fleet/serve.(*Batch).appendResult"}},
		{count: 3, frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}},
		{count: 2, frames: []string{"syscall.write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}},
		{count: 1, frames: []string{"runtime.futex", "runtime.notesleep"}},
		{count: 1, frames: []string{"main.(*replayer).replayJob"}},
		{count: 4, frames: []string{"eilid/internal/mem.(*Space).LoadWord", "eilid/internal/periph.(*UART).LoadWord"}},
	}
	shares, total := attribute(samples)
	if total != 20 {
		t.Fatalf("total %d, want 20", total)
	}
	want := map[string]float64{"cpu": 5, "casu": 2, "pool": 1, "serve": 1, "gc": 3, "net": 2, "other": 2, "mem": 4}
	for _, m := range profModules {
		if got := shares[m] * 20; !near(got, want[m]) {
			t.Errorf("%s: %v samples, want %v", m, got, want[m])
		}
	}
}

// A real profile from runtime/pprof decodes into stacks that name the
// functions that ran.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 {
			t.Fatalf("sample with count %d", s.count)
		}
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				found = true
			}
		}
	}
	if len(samples) > 0 && !found {
		t.Errorf("no sample names the spinning function among %d samples", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			spinSink += uint64(i) * 2654435761
		}
	}
}
