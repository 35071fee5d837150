package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet"
)

// tinySizes shrink every workload to a few jobs so the smoke test runs
// all of them, traced and untraced, in seconds.
var tinySizes = sizes{
	AppsBaselineRepeat:  1,
	AppsMonitoredRepeat: 1,
	AttacksRepeat:       2,
	ServiceBatches:      4,
	ServiceGenCount:     8,
	SetupReps:           2,
	MinUnits:            1,
}

func tinyConfig(trace bool) runConfig {
	return runConfig{seed: 3, seconds: 0.01, trace: trace, workers: 2, sizes: tinySizes}
}

// Every workload runs clean, reports every end-to-end metric as a
// positive number, and repeats its counters and digest exactly.
func TestSmokeUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o, err := runWorkload(w, tinyConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			if o.Failed != 0 || o.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.Attempted, o.Failed, o.Errors)
			}
			for _, d := range endToEnd {
				if v, ok := o.Metrics[d.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
			again, err := runWorkload(w, tinyConfig(false))
			if err != nil {
				t.Fatal(err)
			}
			if again.Sim != o.Sim || again.Digest != o.Digest || o.Sim.Jobs == 0 || o.Sim.Cycles == 0 {
				t.Errorf("runs disagree: %+v %s vs %+v %s", o.Sim, o.Digest, again.Sim, again.Digest)
			}
		})
	}
}

// Every traced workload replays each job to its journal line, reports
// every per-layer metric, and counts monitor calls only where a monitor
// is wired.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(true)
			cfg.traceOut = filepath.Join(dir, w.name+".json")
			o, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if o.Failed != 0 {
				t.Fatalf("failed %d: %v", o.Failed, o.Errors)
			}
			for _, d := range perLayer {
				if v, ok := o.Metrics[d.Name]; !ok || math.IsNaN(v) || v < 0 {
					t.Errorf("%s = %v (present %v)", d.Name, v, ok)
				}
			}
			if o.Metrics["sim.jobs"] == 0 || o.Metrics["core.build_count"] == 0 || o.Metrics["prof.samples"] < 0 {
				t.Errorf("sim.jobs %v, builds %v", o.Metrics["sim.jobs"], o.Metrics["core.build_count"])
			}
			fetch := o.Metrics["casu.on_fetch_per_insn"]
			switch w.name {
			case "apps-baseline":
				if fetch != 0 || o.Metrics["casu.violation_polls_per_insn"] != 0 {
					t.Errorf("baseline apps saw monitor calls: fetch %v", fetch)
				}
			case "apps-monitored":
				if math.Abs(fetch-1) > 0.01 || math.Abs(o.Metrics["casu.violation_polls_per_insn"]-1) > 0.05 {
					t.Errorf("monitored apps: %v fetches, %v polls per insn", fetch, o.Metrics["casu.violation_polls_per_insn"])
				}
				for _, def := range monitoredDefenses() {
					if f := o.Metrics["casu."+def+".on_fetch_per_insn"]; math.Abs(f-1) > 0.01 {
						t.Errorf("%s: %v fetches per insn", def, f)
					}
				}
			case "fleetd-service":
				if o.Metrics["serve.batches_retained"] != float64(tinySizes.ServiceBatches) || o.Metrics["fleet.warm.artifact_hits"] == 0 {
					t.Errorf("service: %v batches retained, %v artifact hits", o.Metrics["serve.batches_retained"], o.Metrics["fleet.warm.artifact_hits"])
				}
			}
			b, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Args map[string]int `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			names := map[string]bool{}
			for _, e := range tf.TraceEvents {
				names[e.Name] = true
			}
			for _, want := range []string{"workload", "run", "setup", "build", "predecode", "block-fuse", "job", "checkout", "exec", "oracle", "encode", "batch"} {
				if !names[want] {
					t.Errorf("trace has no %q span", want)
				}
			}
		})
	}
}

// The counting decorator goes on monitored machines only: wrapping a
// baseline machine would give it a watcher and take it off the pure
// block path.
func TestDecoratorNeverOnBaseline(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := attacks.Scenarios()[0]
	build, err := p.Build(sc.Name+".s", sc.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range core.Defenses() {
		m, err := attacks.TargetFor(p, build, spec).NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		d := instrument(m)
		if spec.New == nil {
			if d != nil || m.Monitor != nil || m.CPU.Watch != nil {
				t.Errorf("%s: decorator installed on a baseline machine", spec.Name)
			}
			continue
		}
		if d == nil || m.Monitor != d || m.CPU.Watch != d {
			t.Errorf("%s: decorator not installed", spec.Name)
		}
	}

	// The replay of a baseline-only unit leaves every machine bare.
	b, err := setupBatch(fleet.BatchSpec{Matrix: fleet.MatrixSpec{NoApps: true, Defenses: []string{"baseline"}}})
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.runUnit(true)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(b.p, newTracer(), 0)
	if err := rp.replayBatch(b.r, u.results); err != nil {
		t.Fatal(err)
	}
	if rp.mismatches != 0 || len(rp.machines) == 0 {
		t.Fatalf("%d mismatches over %d machines: %s", rp.mismatches, len(rp.machines), rp.firstMismatch)
	}
	for _, rm := range rp.machines {
		if rm.mon != nil || rm.m.CPU.Watch != nil {
			t.Errorf("replayed baseline machine carries a watcher")
		}
	}
}

// A single run prints the result object as its last line, with every
// metric of the mode and nothing else.
func TestRunOneResultLine(t *testing.T) {
	w, _ := workloadByName("attacks-short")
	for _, trace := range []bool{false, true} {
		cfg := tinyConfig(trace)
		cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
		var out, errb bytes.Buffer
		if code := runOne(w, cfg, "", &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
			t.Fatalf("result keys: %s", lines[len(lines)-1])
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("%s: unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
	}
}

func TestBoolArgs(t *testing.T) {
	got := strings.Join(boolArgs([]string{"--workload", "x", "--trace", "1", "-seed", "0", "-trace", "0", "-trace"}, "trace"), " ")
	if want := "--workload x -trace=true -seed 0 -trace=false -trace"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
