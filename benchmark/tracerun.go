package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"eilid/internal/core"
)

// profiler accumulates CPU-profile samples over several profiled
// stretches of a traced run.
type profiler struct {
	samples []stackSample
}

// during runs fn under the CPU profiler.
func (p *profiler) during(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	s, err := parseProfile(buf.Bytes())
	if err != nil {
		return err
	}
	p.samples = append(p.samples, s...)
	return nil
}

func (p *profiler) metrics(out map[string]float64) {
	shares, total := attribute(p.samples)
	for m, s := range shares {
		out["prof."+m] = s
	}
	out["prof.samples"] = float64(total)
}

// zeroLayers reports the layers a workload does not reach as 0, so a
// traced run prints every per-layer metric.
func zeroLayers(out map[string]float64) {
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			out[d.Name] = 0
		}
	}
}

// selfExtra saves each span name's self time.
func selfExtra(tr *tracer, extra map[string]float64) {
	for name, d := range tr.selfTimes() {
		extra["self_ms."+name] = ms(d)
	}
}

// traceBatchWorkload is a traced run of a runner workload:
//
//	workload → run → setup → {pipeline, build, predecode, block-fuse, runner}
//	workload → run → batch (stretches of units alternate the profiler off and on)
//	workload → run → job → {checkout, exec, oracle, encode}
//
// The set-up is replayed through public calls around the runner's own;
// the profiled stretches give the module attribution and the tracing
// overhead; one unit's jobs are then replayed one at a time with the
// counting decorator installed.
func traceBatchWorkload(w *workload, cfg runConfig) (*runOutcome, error) {
	spec := w.spec(cfg.sizes, cfg.seed)
	spec.Exec = cfg.exec()
	out := newOutcome()
	tr := newTracer()
	root := tr.begin("workload", 0)
	run := tr.begin("run", root)

	setup := tr.begin("setup", run)
	id := tr.begin("pipeline", setup)
	p, err := core.NewPipeline(core.DefaultConfig())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	st, err := replaySetup(tr, setup, p, spec)
	if err != nil {
		return nil, err
	}
	st.metrics(out.Metrics)
	id = tr.begin("runner", setup)
	b, err := newBatch(p, spec)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.end(setup)

	first, err := b.runUnit(true)
	if err != nil {
		return nil, err
	}
	out.checkUnit(w.name, len(b.r.Jobs()), first)
	// Stretches of units alternate between the profiler off and on; a
	// stretch spans several units because stopping the profiler takes
	// ~100 ms.
	var plain, profiled []float64
	var cpuProf profiler
	deadline := time.Now().Add(seconds(cfg.seconds / 2))
	for i := 0; len(profiled) == 0 || time.Now().Before(deadline); i++ {
		walls := &plain
		if i%2 == 1 {
			walls = &profiled
		}
		stretch := func() error {
			end := time.Now().Add(seconds(cfg.seconds / 10))
			for n := 0; n == 0 || time.Now().Before(end); n++ {
				start := time.Now()
				u, err := b.runUnit(false)
				if err != nil {
					return err
				}
				tr.add("batch", run, start, u.wall)
				out.checkUnit(w.name, len(b.r.Jobs()), u)
				*walls = append(*walls, u.wall.Seconds())
			}
			return nil
		}
		if i%2 == 0 {
			err = stretch()
		} else {
			err = cpuProf.during(stretch)
		}
		if err != nil {
			return nil, err
		}
	}
	cpuProf.metrics(out.Metrics)
	out.Metrics["trace.overhead_ratio"] = median(profiled) / median(plain)

	rp := newReplayer(p, tr, run)
	err = rp.replay(func() error { return rp.replayBatch(b.r, first.results) }, seconds(cfg.seconds/4), out)
	if err != nil {
		return nil, err
	}
	out.Metrics["fleet.journal_bytes"] = float64(first.bytes)
	out.Metrics["sim.jobs"] = float64(first.sim.Jobs)
	out.Metrics["sim.cycles"] = float64(first.sim.Cycles)
	out.Metrics["sim.insns"] = float64(first.sim.Insns)
	tr.end(run)
	tr.end(root)
	zeroLayers(out.Metrics)
	selfExtra(tr, out.Extra)
	return out, writeTrace(tr, cfg)
}

// traceServiceWorkload is a traced fleetd-service run:
//
//	workload → run → setup → {pipeline, build, predecode, block-fuse} (one fresh batch's preparation)
//	workload → run → batch → {submit, first-line, stream}
//	workload → run → job → {checkout, exec, oracle, encode} (one fresh batch replayed)
//
// Passes of the whole batch sequence, each through a fresh server,
// alternate the profiler off and on.
func traceServiceWorkload(cfg runConfig) (*runOutcome, error) {
	out := newOutcome()
	seeds := serviceSeeds(cfg.seed, cfg.sizes.ServiceBatches)
	refs, err := serviceRefs(cfg, seeds)
	if err != nil {
		return nil, err
	}
	// The sequence's last batch carries a fresh seed: its preparation is
	// what a cold batch pays, and its jobs are the ones replayed.
	fresh := serviceSpec(cfg, seeds[len(seeds)-1])
	tr := newTracer()
	root := tr.begin("workload", 0)
	run := tr.begin("run", root)

	setup := tr.begin("setup", run)
	id := tr.begin("pipeline", setup)
	p, err := core.NewPipeline(core.DefaultConfig())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	st, err := replaySetup(tr, setup, p, fresh)
	if err != nil {
		return nil, err
	}
	st.metrics(out.Metrics)
	tr.end(setup)

	var plain, profiled []float64
	var submit, lag, stream []float64
	var last *passResult
	var cpuProf profiler
	deadline := time.Now().Add(seconds(cfg.seconds / 2))
	for i := 0; len(profiled) == 0 || time.Now().Before(deadline); i++ {
		var sr *passResult
		pass := func() (err error) { sr, err = runPass(cfg, seeds, refs, out, nil, inspect); return err }
		if i%2 == 0 {
			err = pass()
		} else {
			err = cpuProf.during(pass)
		}
		if err != nil {
			return nil, err
		}
		if i%2 == 0 {
			plain = append(plain, sr.wall.Seconds())
		} else {
			profiled = append(profiled, sr.wall.Seconds())
		}
		server := map[string]float64{}
		for _, s := range sr.statuses {
			server[s.ID] = s.FirstJobMS
		}
		for _, bt := range sr.batches {
			b := tr.add("batch", run, bt.start, bt.total)
			tr.add("submit", b, bt.start, bt.submit)
			tr.add("first-line", b, bt.start.Add(bt.submit), bt.firstLine-bt.submit)
			tr.add("stream", b, bt.start.Add(bt.firstLine), bt.total-bt.firstLine)
			submit = append(submit, ms(bt.submit))
			lag = append(lag, ms(bt.firstLine)-server[bt.id])
			stream = append(stream, ms(bt.total-bt.firstLine))
		}
		last = sr
		// Collect this pass's server before the next one grows its own.
		runtime.GC()
	}
	cpuProf.metrics(out.Metrics)
	out.Metrics["trace.overhead_ratio"] = median(profiled) / median(plain)
	out.Extra["serve.submit_ms_p50"] = median(submit)
	out.Extra["serve.first_line_lag_ms_p50"] = median(lag)
	out.Extra["serve.stream_ms_p50"] = median(stream)
	out.Metrics["fleet.warm.artifact_hits"] = float64(last.health.Warm.ArtifactHits)
	out.Metrics["fleet.warm.artifact_misses"] = float64(last.health.Warm.ArtifactMisses)
	out.Metrics["fleet.warm.machine_hits"] = float64(last.health.Warm.MachineHits)
	out.Metrics["fleet.warm.machines"] = float64(last.health.Warm.Machines)
	out.Metrics["serve.batches_retained"] = float64(len(last.statuses))
	var retained int64
	for _, bt := range last.batches {
		retained += bt.bytes
	}
	out.Metrics["serve.journal_bytes_retained"] = float64(retained)
	out.Digest = last.digest
	for _, s := range seeds {
		out.Sim.Jobs += refs[s].sim.Jobs
		out.Sim.Cycles += refs[s].sim.Cycles
		out.Sim.Insns += refs[s].sim.Insns
	}

	b, err := newBatch(p, fresh)
	if err != nil {
		return nil, err
	}
	u, err := b.runUnit(true)
	if err != nil {
		return nil, err
	}
	if u.digest != refs[fresh.Matrix.Generated.Seed].digest {
		out.fail("fleetd-service: replayed batch journal differs from its reference")
	}
	rp := newReplayer(p, tr, run)
	if err := rp.replay(func() error { return rp.replayBatch(b.r, u.results) }, seconds(cfg.seconds/4), out); err != nil {
		return nil, err
	}
	out.Metrics["fleet.journal_bytes"] = float64(u.bytes)
	out.Metrics["sim.jobs"] = float64(out.Sim.Jobs)
	out.Metrics["sim.cycles"] = float64(out.Sim.Cycles)
	out.Metrics["sim.insns"] = float64(out.Sim.Insns)
	tr.end(run)
	tr.end(root)
	zeroLayers(out.Metrics)
	selfExtra(tr, out.Extra)
	return out, writeTrace(tr, cfg)
}

func writeTrace(tr *tracer, cfg runConfig) error {
	if cfg.traceOut == "" {
		return nil
	}
	if err := tr.writeChrome(cfg.traceOut); err != nil {
		return fmt.Errorf("writing %s: %w", cfg.traceOut, err)
	}
	return nil
}
