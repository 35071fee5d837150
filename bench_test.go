// Package eilid_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation:
//
//	BenchmarkTable4_*           — per-application software overhead
//	                              (compile time, binary size, run time)
//	BenchmarkFigure10_*         — hardware cost estimation
//	BenchmarkMicro_StoreCheck   — §VI store/check path costs
//	BenchmarkTable1_Catalog     — the static comparison tables
//	BenchmarkPipeline_*         — the Figure 2 build itself
//	BenchmarkSimulator_*        — substrate throughput
//
// Custom metrics carry the paper-comparable numbers: cycles/run,
// overhead %, LUTs, registers. Run with:
//
//	go test -bench=. -benchmem
package eilid_test

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/eval"
	"eilid/internal/fleet"
	"eilid/internal/hwcost"
	"eilid/internal/isa"
	"eilid/internal/scenario"
)

func newPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// runOnce executes one build variant of an app (optionally with a
// shared predecoded instruction cache) and returns the cycle count.
func runOnce(b *testing.B, p *core.Pipeline, app apps.App, build *core.BuildResult, protected bool, pre *isa.Predecoded) uint64 {
	b.Helper()
	opts := core.MachineOptions{Config: p.Config()}
	img := build.Original.Image
	if protected {
		opts.ROM = p.ROM()
		opts.Defense = core.DefenseEILID
		img = build.Instrumented.Image
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadFirmware(img); err != nil {
		b.Fatal(err)
	}
	if pre != nil {
		m.UsePredecoded(pre)
	}
	if app.UARTInput != "" {
		m.UART.Feed([]byte(app.UARTInput))
	}
	m.Boot()
	res, err := m.Run(app.MaxCycles)
	if err != nil {
		b.Fatal(err)
	}
	if protected && m.ResetCount != 0 {
		b.Fatalf("benign run reset: %v", m.ResetReasons)
	}
	return res.Cycles
}

// BenchmarkTable4 regenerates the run-time dimension of Table IV
// through the fleet runner: the application is assembled and predecoded
// once (NewRunner, untimed), then every iteration replays both device
// variants as fleet jobs and reports simulated cycles plus the overhead
// percentage.
func BenchmarkTable4(b *testing.B) {
	p := newPipeline(b)
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			r, err := fleet.NewRunner(p, fleet.BatchSpec{
				Matrix: fleet.MatrixSpec{Apps: []string{app.Name}, NoScenarios: true},
				Exec:   fleet.ExecSpec{Workers: 2},
			})
			if err != nil {
				b.Fatal(err)
			}
			build := r.BuildFor("app", app.Name)
			if build == nil {
				b.Fatal("runner did not prepare the app build")
			}
			layout := p.Config().Layout
			sizeEILID := build.Instrumented.Image.SizeInRange(layout.PMEMStart, layout.PMEMEnd)
			var rep *fleet.Report
			var results []fleet.JobResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = results[:0]
				if rep, _, err = r.Run(nil, nil, func(jr fleet.JobResult) { results = append(results, jr) }); err != nil {
					b.Fatal(err)
				}
			}
			if rep.Failures != 0 {
				b.Fatalf("fleet job failed: %+v", results)
			}
			orig, inst := results[0].Cycles, results[1].Cycles
			b.ReportMetric(float64(orig), "cycles-orig")
			b.ReportMetric(float64(inst), "cycles-eilid")
			b.ReportMetric(100*float64(inst-orig)/float64(orig), "overhead-%")
			b.ReportMetric(float64(sizeEILID), "bytes-eilid")
		})
	}
}

// BenchmarkTable4_CompileTime measures the compile-time dimension: the
// single-assembly original build versus the three-iteration EILID build.
func BenchmarkTable4_CompileTime(b *testing.B) {
	p := newPipeline(b)
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name+"/original", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.BuildOriginal(app.Name+".s", app.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(app.Name+"/eilid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Build(app.Name+".s", app.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10_HardwareCost reports the monitor resource estimate
// next to the paper's published EILID numbers.
func BenchmarkFigure10_HardwareCost(b *testing.B) {
	var n *hwcost.Netlist
	for i := 0; i < b.N; i++ {
		n = hwcost.Estimate()
	}
	b.ReportMetric(float64(n.LUTs), "LUTs")
	b.ReportMetric(float64(n.Registers), "registers")
	b.ReportMetric(99, "paper-LUTs")
	b.ReportMetric(34, "paper-registers")
}

// BenchmarkMicro_StoreCheck reports the §VI store/check path costs.
func BenchmarkMicro_StoreCheck(b *testing.B) {
	p := newPipeline(b)
	var m eval.MicroOverhead
	var err error
	for i := 0; i < b.N; i++ {
		if m, err = eval.MeasureMicro(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.StoreInsns), "store-insns")
	b.ReportMetric(float64(m.CheckInsns), "check-insns")
	b.ReportMetric(float64(m.StoreCycles), "store-cycles")
	b.ReportMetric(float64(m.CheckCycles), "check-cycles")
}

// BenchmarkTable1_Catalog renders the static tables (I, II, III).
func BenchmarkTable1_Catalog(b *testing.B) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		eval.RenderTableI(io.Discard)
		eval.RenderTableII(io.Discard)
		eval.RenderTableIII(io.Discard, cfg)
	}
}

// BenchmarkPipeline_Build measures the Figure 2 pipeline end to end on
// the largest application.
func BenchmarkPipeline_Build(b *testing.B) {
	p := newPipeline(b)
	app, _ := apps.ByName("LcdSensor")
	for i := 0; i < b.N; i++ {
		if _, err := p.Build("lcd.s", app.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// busySrc is the compute-bound loop the throughput benchmarks run.
const busySrc = `
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #10000, r10
busy:
    add #3, r11
    xor r11, r12
    dec r10
    jnz busy
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`

// benchmarkThroughput measures raw simulated cycles per second of host
// time. One machine is built, loaded and sealed before the timer starts;
// each iteration recycles, boots and runs it, so construction stays out
// of the measurement. production installs the decode cache, the per-ROM
// artifact the fleet shares; without it the machine is the executable
// reference.
func benchmarkThroughput(b *testing.B, production bool) {
	p := newPipeline(b)
	prog, err := p.BuildOriginal("busy.s", busySrc)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		b.Fatal(err)
	}
	if production {
		m.EnablePredecode()
	}
	m.Snapshot()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Recycle(); err != nil {
			b.Fatal(err)
		}
		m.Boot()
		res, err := m.Run(10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "simMcycles/s")
}

// BenchmarkSimulator_Throughput is the hot path as the fleet runs it:
// decode cache on, basic-block execution, threaded-code executors,
// page-table bus dispatch, deadline-batched peripheral ticking.
func BenchmarkSimulator_Throughput(b *testing.B) { benchmarkThroughput(b, true) }

// BenchmarkSimulator_ThroughputReference runs the same loop on the
// cache-less reference machine (live decode, the generic interpreter,
// a peripheral sync after every instruction), so the production path's
// gain over the executable spec stays measurable.
func BenchmarkSimulator_ThroughputReference(b *testing.B) { benchmarkThroughput(b, false) }

// BenchmarkSimulator_FleetMatrix runs fleet batches through the runner
// on all CPUs — the batch workload the fleet subsystem exists for.
// full is the whole application × variant × scenario matrix, with
// results discarded. short-jobs is the handcrafted attack suite × 4
// defense columns × 50 repeats, 3–1,144 simulated cycles per job, each
// result encoded by WriteNDJSONLine into io.Discard: there the runner's
// per-job work (scheduling, recycle, oracle, encoding) dominates.
// Artifacts (builds and decode caches) are prepared once, untimed.
func BenchmarkSimulator_FleetMatrix(b *testing.B) {
	p := newPipeline(b)
	for _, c := range []struct {
		name   string
		matrix fleet.MatrixSpec
		encode bool
	}{
		{"full", fleet.MatrixSpec{}, false},
		{"short-jobs", fleet.MatrixSpec{NoApps: true, Repeat: 50}, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			r, err := fleet.NewRunner(p, fleet.BatchSpec{Matrix: c.matrix, Exec: fleet.ExecSpec{Workers: runtime.GOMAXPROCS(0)}})
			if err != nil {
				b.Fatal(err)
			}
			var emit func(fleet.JobResult)
			var werr error
			if c.encode {
				emit = func(jr fleet.JobResult) {
					if err := fleet.WriteNDJSONLine(io.Discard, jr); err != nil {
						werr = err
					}
				}
			}
			var cycles uint64
			var jobs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, _, err := r.Run(nil, nil, emit)
				if err == nil {
					err = werr
				}
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failures != 0 {
					b.Fatalf("%d fleet jobs failed", rep.Failures)
				}
				cycles += rep.TotalCycles
				jobs += rep.Jobs
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/sec/1e6, "simMcycles/s")
			b.ReportMetric(float64(jobs)/sec, "jobs/s")
		})
	}
}

// BenchmarkSimulator_AppsByDefense runs the seven Table IV apps under
// each defense column on recycled machines, the rate fleet jobs get.
// Builds, decode caches and machines are made before the timer starts;
// each iteration recycles and runs every app once. pure-share is the
// fraction of instructions retired on the pure block path,
// skipped-share the fraction of simulated cycles spin loops retired
// without running them (they count in simMcycles/s too), and
// exits/kcycle counts the block executor's returns to the run loop
// (every reason in CPU.BlockExits) per thousand simulated cycles.
func BenchmarkSimulator_AppsByDefense(b *testing.B) {
	p := newPipeline(b)
	for _, spec := range core.Defenses() {
		b.Run(spec.Name, func(b *testing.B) {
			var ms []*core.Machine
			var run []apps.App
			for _, app := range apps.All() {
				build, err := p.Build(app.Name+".s", app.Source)
				if err != nil {
					b.Fatal(err)
				}
				opts := core.MachineOptions{Config: p.Config(), Defense: spec}
				img := build.Original.Image
				if spec.Instrumented {
					opts.ROM = p.ROM()
					img = build.Instrumented.Image
				}
				m, err := core.NewMachine(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadFirmware(img); err != nil {
					b.Fatal(err)
				}
				m.EnablePredecode()
				m.Snapshot()
				ms = append(ms, m)
				run = append(run, app)
			}
			var cycles, insns, pure, skipped, exits uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, m := range ms {
					if err := m.Recycle(); err != nil {
						b.Fatal(err)
					}
					insp, reason, err := fleet.ExecuteAppOn(m, run[k])
					if err != nil || reason != "" {
						b.Fatalf("%s: %v %s", run[k].Name, err, reason)
					}
					cycles += insp.Cycles
					insns += m.CPU.Insns
					pure += m.CPU.PureInsns
					skipped += m.CPU.SkippedCycles
					for _, n := range m.CPU.BlockExits {
						exits += n
					}
				}
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "simMcycles/s")
			b.ReportMetric(float64(pure)/float64(insns), "pure-share")
			b.ReportMetric(float64(skipped)/float64(cycles), "skipped-share")
			b.ReportMetric(float64(exits)/float64(cycles)*1e3, "exits/kcycle")
		})
	}
}

// BenchmarkFleet_MachineChurn isolates the per-job machine-lifecycle
// overhead the fleet pays before the first simulated instruction runs.
// construct-per-job is the pre-recycling lifecycle: NewMachine + secure
// ROM + firmware load + shared-cache install + boot, every job.
// recycled is the pooled lifecycle: Recycle (snapshot restore + power-on
// resets) + boot. The recycling subsystem's acceptance bar is recycled
// per-job overhead at least 2× below construct-per-job. A Restore
// copies only the pages written since the last one, and recycled's
// machine runs nothing, so it copies none: recycled-after-attack
// measures what a short attack job pays, Recycle plus the stack-smash
// run, with 64 machines in rotation so the copies do not hit a warm
// cache. recycled-after-poke does the same with isr-context-tamper,
// whose victim spins longest before the harness write, so it measures
// the run to a poke point (Machine.RunTo). Every case reports its
// allocations, so B/op and allocs/op land in the BENCH_<n>.json
// records: construct-per-job's B/op is about what one machine holds.
func BenchmarkFleet_MachineChurn(b *testing.B) {
	p := newPipeline(b)
	app, ok := apps.ByName("TempSensor")
	if !ok {
		b.Fatal("TempSensor application missing")
	}
	build, err := p.Build(app.Name+".s", app.Source)
	if err != nil {
		b.Fatal(err)
	}
	newMachine := func(b *testing.B) *core.Machine {
		b.Helper()
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadFirmware(build.Instrumented.Image); err != nil {
			b.Fatal(err)
		}
		return m
	}
	// The shared per-ROM decode cache, as the fleet prepares it once,
	// untimed.
	pre := newMachine(b).EnablePredecode()

	b.Run("construct-per-job", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := newMachine(b)
			m.UsePredecoded(pre)
			m.Boot()
		}
	})
	b.Run("recycled", func(b *testing.B) {
		b.ReportAllocs()
		m := newMachine(b)
		m.UsePredecoded(pre)
		m.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Recycle(); err != nil {
				b.Fatal(err)
			}
			m.Boot()
		}
	})
	for _, c := range []struct{ name, scenario string }{
		{"recycled-after-attack", "stack-smash"},
		{"recycled-after-poke", "isr-context-tamper"},
	} {
		i := slices.IndexFunc(attacks.Scenarios(), func(sc attacks.Scenario) bool { return sc.Name == c.scenario })
		if i < 0 {
			b.Fatalf("no handcrafted scenario %s", c.scenario)
		}
		sc := attacks.Scenarios()[i]
		victim, err := p.Build(sc.Name+".s", sc.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseEILID} {
			b.Run(c.name+"/"+spec.Name, func(b *testing.B) {
				b.ReportAllocs()
				tg := attacks.TargetFor(p, victim, spec)
				// The machines share the first one's decode cache, as a
				// fleet pool's do.
				ms := make([]*core.Machine, 64)
				for i := range ms {
					m, err := tg.NewMachine()
					if err != nil {
						b.Fatal(err)
					}
					tg.Predecoded = m.CPU.Predecoded()
					m.Snapshot()
					ms[i] = m
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := ms[i%len(ms)]
					if err := m.Recycle(); err != nil {
						b.Fatal(err)
					}
					if _, err := attacks.ExecuteOn(m, tg, sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFleet_ArtifactBuild measures what the fleet runner pays to
// prepare a firmware's shared artifacts: each op predecodes both build
// flavours of one Table IV app and of one generated victim straight
// from their images, blocks fused, as Runner.prepare does.
// live-B/flavour is the heap one flavour's cache holds after a
// collection, the share of a daemon's Warm that grows with every
// firmware it has seen.
func BenchmarkFleet_ArtifactBuild(b *testing.B) {
	p := newPipeline(b)
	app, ok := apps.ByName("TempSensor")
	if !ok {
		b.Fatal("TempSensor application missing")
	}
	victim := scenario.Generate(1, 1).Victims[0]
	var targets []attacks.Target
	for _, src := range [][2]string{{app.Name, app.Source}, {victim.Name, victim.Source}} {
		build, err := p.Build(src[0]+".s", src[1])
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseEILID} {
			targets = append(targets, attacks.TargetFor(p, build, spec))
		}
	}
	build := func() []*isa.Predecoded {
		pres := make([]*isa.Predecoded, len(targets))
		for i, t := range targets {
			pres[i] = t.Predecode()
		}
		return pres
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.StopTimer()
	// The second collection frees what the first left in sync.Pool
	// victim caches, so the reading holds live objects only.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	held := build()
	after := liveHeap()
	// The builds behind targets stay live across both readings, or the
	// second would count their release against the flavours.
	runtime.KeepAlive(held)
	runtime.KeepAlive(targets)
	b.ReportMetric(float64(int64(after)-int64(before))/float64(len(held)), "live-B/flavour")
}

// BenchmarkEILIDsw_RoundTrip measures one full gateway round trip
// (store_ra) on the protected machine.
func BenchmarkEILIDsw_RoundTrip(b *testing.B) {
	p := newPipeline(b)
	ins := core.NewInstrumenter(p.Config(), p.ROM())
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    call #NS_EILID_init
loop:
    mov #0xE100, r6
    call #NS_EILID_store_ra
    mov #0xE100, r6
    call #NS_EILID_check_ra
    jmp loop
` + ins.GatewaySource() + `
.org 0xFFFE
.word reset
`
	prog, err := p.BuildOriginal("rt.s", src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		b.Fatal(err)
	}
	m.Boot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if m.ResetCount != 0 {
		b.Fatalf("unexpected reset: %v", m.ResetReasons)
	}
}

// ---- Ablations -------------------------------------------------------------

// BenchmarkAblation_MonitorPassive quantifies a design property the paper
// claims implicitly: the CASU/EILID hardware monitor adds ZERO run-time
// cycles to code that does not violate it (it only watches). The same
// uninstrumented firmware is run on the unprotected and the protected
// device; the cycle counts must match exactly.
func BenchmarkAblation_MonitorPassive(b *testing.B) {
	p := newPipeline(b)
	app, _ := apps.ByName("TempSensor")
	build, err := p.Build(app.Name+".s", app.Source)
	if err != nil {
		b.Fatal(err)
	}
	var unprot, prot uint64
	for i := 0; i < b.N; i++ {
		unprot = runOnce(b, p, app, build, false, nil)
		// Original image on the protected machine: hardware watches, no
		// software instrumentation runs.
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.LoadFirmware(build.Original.Image); err != nil {
			b.Fatal(err)
		}
		m.Boot()
		res, err := m.Run(app.MaxCycles)
		if err != nil {
			b.Fatal(err)
		}
		if m.ResetCount != 0 {
			b.Fatalf("uninstrumented original tripped the monitor: %v", m.ResetReasons)
		}
		prot = res.Cycles
	}
	if unprot != prot {
		b.Fatalf("monitor not passive: %d vs %d cycles", unprot, prot)
	}
	b.ReportMetric(float64(prot), "cycles")
	b.ReportMetric(0, "hw-monitor-overhead-cycles")
}

// BenchmarkAblation_DispatchDepth measures the cost of the EILIDsw entry
// dispatch per selector: the compare chain makes late selectors (store_ind,
// check_ind) slightly more expensive than early ones (store_ra) — the
// design rationale for ordering the hot P1 operations first.
func BenchmarkAblation_DispatchDepth(b *testing.B) {
	p := newPipeline(b)
	ins := core.NewInstrumenter(p.Config(), p.ROM())
	ops := []struct {
		name    string
		gateway string
		prep    string
	}{
		{"store_ra-sel1", "NS_EILID_store_ra", "mov #0xE100, r6"},
		{"check_ra-sel2", "NS_EILID_check_ra", "mov #0xE100, r6"},
		{"store_ind-sel5", "NS_EILID_store_ind", "mov #0xE100, r6"},
		{"check_ind-sel6", "NS_EILID_check_ind", "mov #0xE100, r6"},
	}
	for _, op := range ops {
		op := op
		b.Run(op.name, func(b *testing.B) {
			// Prepare a machine with one store_ra/store_ind already done
			// so the check variants have something to verify.
			src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    call #NS_EILID_init
    mov #0xE100, r6
    call #NS_EILID_store_ra
    mov #0xE100, r6
    call #NS_EILID_store_ind
m_begin:
    ` + op.prep + `
    call #` + op.gateway + `
m_end:
    mov #0, &0x00FC
spin:
    jmp spin
` + ins.GatewaySource() + `
.org 0xFFFE
.word reset
`
			prog, err := p.BuildOriginal("abl.s", src)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadFirmware(prog.Image); err != nil {
					b.Fatal(err)
				}
				m.Boot()
				begin, end := prog.Symbols["m_begin"], prog.Symbols["m_end"]
				for m.CPU.PC() != begin {
					if _, err := m.Step(); err != nil {
						b.Fatal(err)
					}
				}
				c0 := m.CPU.Cycles
				for m.CPU.PC() != end {
					if _, err := m.Step(); err != nil {
						b.Fatal(err)
					}
					if m.ResetCount != 0 {
						b.Fatalf("ablation driver reset: %v", m.ResetReasons)
					}
				}
				cycles = m.CPU.Cycles - c0
			}
			b.ReportMetric(float64(cycles), "cycles/op")
		})
	}
}

// BenchmarkAblation_SpillCost compares the per-site cost when the
// application claims the reserved argument registers (forcing push/pop
// spills around every instrumentation block) against a register-clean
// app of identical structure.
func BenchmarkAblation_SpillCost(b *testing.B) {
	p := newPipeline(b)
	template := func(regA, regB string) string {
		return `
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #100, r10
    mov #1, ` + regA + `
    mov #2, ` + regB + `
loop:
    call #work
    dec r10
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
work:
    add ` + regA + `, r11
    add ` + regB + `, r11
    ret
.org 0xFFFE
.word reset
`
	}
	variants := []struct {
		name       string
		regA, regB string
	}{
		{"clean-r8-r9", "r8", "r9"},
		{"spilled-r6-r7", "r6", "r7"},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			build, err := p.Build("spill-abl.s", template(v.regA, v.regB))
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.LoadFirmware(build.Instrumented.Image); err != nil {
					b.Fatal(err)
				}
				m.Boot()
				res, err := m.Run(1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if m.ResetCount != 0 {
					b.Fatalf("spill ablation reset: %v", m.ResetReasons)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(len(build.Stats.SpilledRegs)), "spilled-regs")
		})
	}
}

// BenchmarkAblation_ShadowStackSize varies the shadow-stack capacity, a
// configurable the paper calls out ("the shadow stack size is
// configurable based on memory constraints"), and confirms capacity does
// not change the per-operation cost (the index arithmetic is O(1)).
func BenchmarkAblation_ShadowStackSize(b *testing.B) {
	for _, entries := range []int{16, 64, 96} {
		entries := entries
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.MaxShadowEntries = entries
			p, err := core.NewPipeline(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var m eval.MicroOverhead
			for i := 0; i < b.N; i++ {
				if m, err = eval.MeasureMicro(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(m.StoreCycles), "store-cycles")
		})
	}
}
