package main

import "eilid/internal/core"

// metricDef names one reported metric. End-to-end metrics carry the
// bound by which their median may worsen before a change counts as a
// regression; per-layer metrics have none. The catalog is mirrored by
// BENCHMARK.json at the repository root (a test keeps the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the fleet sees, measured with
// tracing off. Every workload reports every one of them, and none can
// read 0: setup_s and heap_mb always hold a built runner, and each run
// completes at least one unit. Latencies (time to the first job line,
// batch wall time) are reported as breakdowns instead: on a shared
// 2-vCPU VM their run-to-run spread reached the largest bound a metric
// may have (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.25},
}

// casuEvents are the monitor callbacks the counting decorator tallies.
var casuEvents = []struct{ name, unit string }{
	{"on_fetch_per_insn", "1/insn"},
	{"on_read_per_insn", "1/insn"},
	{"on_write_per_insn", "1/insn"},
	{"on_interrupt", "count"},
	{"violation_polls_per_insn", "1/insn"},
}

// profModules are the layers CPU-profile samples are charged to: every
// eilid/internal module the workloads reach, plus the buckets for
// samples with no such frame.
var profModules = []string{
	"asm", "isa", "cpu", "mem", "periph", "casu", "core", "attacks",
	"scenario", "apps", "fleet", "pool", "serve", "net", "gc", "other",
}

// monitoredDefenses are the registry columns that wire a monitor.
func monitoredDefenses() []string {
	var out []string
	for _, d := range core.Defenses() {
		if d.New != nil {
			out = append(out, d.Name)
		}
	}
	return out
}

// perLayer are the traced metrics. Each is reported on every workload,
// as 0 where the layer does no work (casu on apps-baseline, serve and
// the warm cache outside fleetd-service). Timings of layers that only
// some workloads reach (per-app exec time, the serve request phases)
// are printed in the traced table and saved with -out, not listed here,
// so that no listed time is structurally constant.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, def := range append([]string{""}, monitoredDefenses()...) {
		for _, ev := range casuEvents {
			name := "casu." + ev.name
			if def != "" {
				name = "casu." + def + "." + ev.name
			}
			add(name, ev.unit, "lower")
		}
	}
	for _, m := range profModules {
		add("prof."+m, "share", "lower")
	}
	add("prof.samples", "count", "higher")
	add("mem.bus_errors", "count", "lower")
	add("mem.handler_stores_per_kcycle", "1/kcycle", "lower")
	add("core.checkout_us_p50", "us", "lower")
	add("core.constructs", "count", "lower")
	add("core.recycles", "count", "higher")
	add("core.exec_us_p50", "us", "lower")
	add("core.exec_us_p99", "us", "lower")
	add("core.resets", "count", "lower")
	add("attacks.compromised", "count", "lower")
	add("oracle.check_us_p50", "us", "lower")
	add("fleet.encode_us_p50", "us", "lower")
	add("fleet.job_us_p50", "us", "lower")
	add("fleet.job_us_p99", "us", "lower")
	add("fleet.journal_bytes", "bytes", "lower")
	add("core.build_s", "s", "lower")
	add("core.build_count", "count", "lower")
	add("isa.predecode_s", "s", "lower")
	add("isa.block_fuse_s", "s", "lower")
	add("fleet.warm.artifact_hits", "count", "higher")
	add("fleet.warm.artifact_misses", "count", "lower")
	add("fleet.warm.machine_hits", "count", "higher")
	add("fleet.warm.machines", "count", "lower")
	add("serve.batches_retained", "count", "lower")
	add("serve.journal_bytes_retained", "bytes", "lower")
	add("sim.jobs", "count", "higher")
	add("sim.cycles", "count", "higher")
	add("sim.insns", "count", "higher")
	add("trace.overhead_ratio", "ratio", "lower")
	return out
}()
