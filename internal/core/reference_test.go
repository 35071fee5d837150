package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/isa"
)

// event is one watcher callback, kept as a comparable value so a whole
// app run records cheaply; String renders it for failure messages.
type event struct {
	kind byte // 'F' fetch, 'R' read, 'W' write, 'I' interrupt
	// F: prev, pc. R and W: pc, addr. I: pc, line.
	a, b  uint16
	wide  bool   // R and W: byte access
	value uint16 // W: the stored value
}

func (e event) String() string {
	switch e.kind {
	case 'F':
		return fmt.Sprintf("F %04x->%04x", e.a, e.b)
	case 'R':
		return fmt.Sprintf("R %04x %04x %v", e.a, e.b, e.wide)
	case 'W':
		return fmt.Sprintf("W %04x %04x %v %04x", e.a, e.b, e.wide, e.value)
	}
	return fmt.Sprintf("I %04x %d", e.a, e.b)
}

// eventRecorder captures the full architectural signal stream the CASU
// monitor taps, optionally forwarding to an inner watcher (the monitor
// itself on protected machines), plus the absolute cycle of every
// accepted interrupt. The production path must reproduce this stream
// bit-identically.
type eventRecorder struct {
	inner  cpu.Watcher
	clock  func() uint64
	events []event
	// IRQCycles is the absolute CPU cycle at each interrupt acceptance.
	irqCycles []uint64
}

func (r *eventRecorder) OnFetch(prev, pc uint16) {
	r.events = append(r.events, event{kind: 'F', a: prev, b: pc})
	if r.inner != nil {
		r.inner.OnFetch(prev, pc)
	}
}

func (r *eventRecorder) OnRead(pc, addr uint16, byteWide bool) {
	r.events = append(r.events, event{kind: 'R', a: pc, b: addr, wide: byteWide})
	if r.inner != nil {
		r.inner.OnRead(pc, addr, byteWide)
	}
}

func (r *eventRecorder) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	r.events = append(r.events, event{kind: 'W', a: pc, b: addr, wide: byteWide, value: value})
	if r.inner != nil {
		r.inner.OnWrite(pc, addr, byteWide, value)
	}
}

func (r *eventRecorder) OnInterrupt(pc uint16, line int) {
	r.events = append(r.events, event{kind: 'I', a: pc, b: uint16(line)})
	r.irqCycles = append(r.irqCycles, r.clock())
	if r.inner != nil {
		r.inner.OnInterrupt(pc, line)
	}
}

// reference returns a machine to the executable reference by removing
// its decode cache: live decode, the generic interpreter and a
// peripheral sync after every instruction. Every differential in this
// package compares the production path against it.
func reference(m *core.Machine) { m.UsePredecoded(nil) }

// observed is every observable of one run: inspection, run result,
// reset reasons, bus errors, the final register file, the peripheral
// state, and the recorded watcher/interrupt streams. skipped, the
// cycles the run retired in spin loops without running them, is not an
// observable: the reference runs every one.
type observed struct {
	insp      *apps.Inspection
	res       core.RunResult
	err       error
	reasons   []string
	busErrors int
	regs      [16]uint16
	periph    string
	events    []event
	irqCycles []uint64
	skipped   uint64
}

// periphState renders what the clocked peripherals leave behind — the
// timer's registers and wrap count, the ADC's registers, the pending
// interrupt lines and every GPIO output transition with the cycle it
// happened on — which deadline-batched ticking must leave exactly as
// per-instruction ticking does.
func periphState(m *core.Machine) string {
	var pending uint16
	for line := 0; line < 16; line++ {
		if m.IRQ.Pending(line) {
			pending |= 1 << line
		}
	}
	ta := m.TimerA
	return fmt.Sprintf("timer %04x/%04x/%04x wraps %d, adc %04x/%04x, irq %04x, p1 %v, p2 %v",
		ta.CTL, ta.TAR, ta.CCR0, ta.Wraps, m.ADC.CTL, m.ADC.MEM, pending, m.Port1.Events, m.Port2.Events)
}

// observation collects the observables of a run that just returned
// res and runErr on m, watched by rec.
func observation(m *core.Machine, rec *eventRecorder, res core.RunResult, runErr error) observed {
	o := observed{
		insp:      apps.Inspect(m, res),
		res:       res,
		err:       runErr,
		busErrors: m.Space.BusErrors,
		regs:      m.CPU.R,
		periph:    periphState(m),
		events:    rec.events,
		irqCycles: rec.irqCycles,
		skipped:   m.CPU.SkippedCycles,
	}
	for _, v := range m.ResetReasons {
		o.reasons = append(o.reasons, v.Error())
	}
	return o
}

// A drive runs a booted machine for at most budget cycles the way one
// entry point of the simulator does, and reports the run.
type drive func(m *core.Machine, budget uint64) (core.RunResult, error)

// running is the entry point the fleet, the CLIs and the examples use.
func running(m *core.Machine, budget uint64) (core.RunResult, error) { return m.Run(budget) }

// stepped drives the machine one Machine.Step at a time, with Run's
// halt and budget rules. On a machine with a decode cache every step
// runs the production interpreter — threaded-code UOps, direct RAM
// access, page-table bus dispatch — with no block and no tick batch
// around it.
func stepped(m *core.Machine, budget uint64) (core.RunResult, error) {
	c0, i0, r0 := m.CPU.Cycles, m.CPU.Insns, m.ResetCount
	var err error
	for !m.Halted() {
		if m.CPU.Cycles >= c0+budget {
			err = core.ErrCycleBudget
			break
		}
		if _, err = m.Step(); err != nil {
			break
		}
	}
	return core.RunResult{
		Cycles: m.CPU.Cycles - c0, Insns: m.CPU.Insns - i0,
		Halted: m.Halted(), ExitCode: m.ExitCode(), Resets: m.ResetCount - r0,
	}, err
}

// sliceCycles is the budget of each Run call sliced makes; a prime, so
// the slice edges drift against the peripherals' periods.
const sliceCycles = 997

// sliced drives the machine through Run in slices of sliceCycles, so
// the run loop is left and re-entered every few hundred instructions:
// each slice edge cuts a tick batch short and moves the budget stop,
// which the block admission rule must respect, to a new offset.
func sliced(m *core.Machine, budget uint64) (core.RunResult, error) {
	c0, i0, r0 := m.CPU.Cycles, m.CPU.Insns, m.ResetCount
	stop := c0 + budget
	for {
		_, err := m.Run(min(sliceCycles, stop-m.CPU.Cycles))
		if err != core.ErrCycleBudget || m.CPU.Cycles >= stop {
			return core.RunResult{
				Cycles: m.CPU.Cycles - c0, Insns: m.CPU.Insns - i0,
				Halted: m.Halted(), ExitCode: m.ExitCode(), Resets: m.ResetCount - r0,
			}, err
		}
	}
}

// runObserved executes one app build variant on the production path
// through Run, watched by an eventRecorder (which has no QuietFetch, so
// every fetch is delivered), with configure (when non-nil) applied
// before boot, and returns every observable.
func runObserved(t *testing.T, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec, configure func(*core.Machine)) observed {
	t.Helper()
	return runDriven(t, p, app, build, spec, configure, running)
}

// runDriven is runObserved with the machine driven by run.
func runDriven(t *testing.T, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec, configure func(*core.Machine), run drive) observed {
	t.Helper()
	opts := core.MachineOptions{Config: p.Config(), Defense: spec}
	img := build.Original.Image
	if spec.Instrumented {
		opts.ROM = p.ROM()
		img = build.Instrumented.Image
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFirmware(img); err != nil {
		t.Fatal(err)
	}
	m.EnablePredecode()
	rec := &eventRecorder{inner: m.CPU.Watch, clock: func() uint64 { return m.CPU.Cycles }}
	m.CPU.Watch = rec
	if configure != nil {
		configure(m)
	}
	if app.UARTInput != "" {
		m.UART.Feed([]byte(app.UARTInput))
	}
	m.Boot()
	res, runErr := run(m, app.MaxCycles)
	return observation(m, rec, res, runErr)
}

// watchAdmitted wraps the plain recorder runObserved installed in a
// quietRecorder that forwards the defense's own filter (every fetch and
// read quiet on the unmonitored baseline), so blocks deliver only the
// fetches the defense needs and spin loops skip the repeats it does not
// need. It stores that filter in *filter.
func watchAdmitted(filter *admitFilter) func(*core.Machine) {
	return func(m *core.Machine) {
		*filter = filterOf(m)
		m.CPU.Watch = &quietRecorder{eventRecorder: m.CPU.Watch.(*eventRecorder), filter: *filter}
	}
}

// compareObserved asserts two runs are cycle-exactly identical in every
// observable the acceptance criteria name: cycles, instruction counts,
// bus errors, register files, peripheral state, watcher event streams,
// interrupt arrival cycles, reset reasons, and the behavioural
// inspection.
func compareObserved(t *testing.T, what string, a, b observed) {
	t.Helper()
	if a.res != b.res {
		// RunResult contains a pointer field; compare the flat parts.
		if a.res.Cycles != b.res.Cycles || a.res.Insns != b.res.Insns ||
			a.res.Halted != b.res.Halted || a.res.ExitCode != b.res.ExitCode ||
			a.res.Resets != b.res.Resets {
			t.Errorf("%s: RunResult diverged: %+v vs %+v", what, a.res, b.res)
		}
	}
	if (a.err == nil) != (b.err == nil) || (a.err != nil && a.err.Error() != b.err.Error()) {
		t.Errorf("%s: run errors diverged: %v vs %v", what, a.err, b.err)
	}
	if a.busErrors != b.busErrors {
		t.Errorf("%s: bus errors %d vs %d", what, a.busErrors, b.busErrors)
	}
	if a.regs != b.regs {
		t.Errorf("%s: register files diverged:\n%v\n%v", what, a.regs, b.regs)
	}
	if a.periph != b.periph {
		t.Errorf("%s: peripheral state diverged:\n%s\n%s", what, a.periph, b.periph)
	}
	if !reflect.DeepEqual(a.reasons, b.reasons) {
		t.Errorf("%s: reset reasons diverged: %v vs %v", what, a.reasons, b.reasons)
	}
	if !reflect.DeepEqual(a.irqCycles, b.irqCycles) {
		t.Errorf("%s: interrupt arrival cycles diverged: %v vs %v", what, a.irqCycles, b.irqCycles)
	}
	if len(a.events) != len(b.events) {
		t.Errorf("%s: watcher stream lengths diverged: %d vs %d", what, len(a.events), len(b.events))
	} else {
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Errorf("%s: watcher stream diverged at event %d: %v vs %v", what, i, a.events[i], b.events[i])
				break
			}
		}
	}
	if err := apps.Equivalent(a.insp, b.insp); err != nil {
		t.Errorf("%s: observable behaviour diverged: %v", what, err)
	}
	if a.insp.Cycles != b.insp.Cycles || a.insp.Insns != b.insp.Insns || a.insp.Resets != b.insp.Resets {
		t.Errorf("%s: cycles/insns/resets %d/%d/%d vs %d/%d/%d", what,
			a.insp.Cycles, a.insp.Insns, a.insp.Resets, b.insp.Cycles, b.insp.Insns, b.insp.Resets)
	}
}

// appMatrix runs cell for every Table IV application (one subtest
// each, named after the app) under every registered defense.
func appMatrix(t *testing.T, cell func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec)) {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.All() {
		t.Run(app.Name, func(t *testing.T) {
			build, err := p.Build(app.Name+".s", app.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range core.Defenses() {
				cell(t, fmt.Sprintf("%s defense=%s", app.Name, spec.Name), p, app, build, spec)
			}
		})
	}
}

// The app × defense differentials below each pin one production path
// against the same executable reference, the cache-less machine.

// TestBlockDifferential: production as Run drives it (decode cache,
// threaded-code UOps, basic blocks, deadline-batched ticking), watched
// by a recorder without QuietFetch, so blocks take the guarded loop
// and deliver every fetch. The watcher stream must equal the
// reference's event for event, and every other observable must match.
func TestBlockDifferential(t *testing.T) {
	appMatrix(t, func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) {
		prod := runObserved(t, p, app, build, spec, nil)
		compareObserved(t, what, prod, runObserved(t, p, app, build, spec, reference))
	})
}

// TestBlockAdmittedDifferential: the same production path watched
// through the defense's own filter — pure blocks admitted to the pure
// path, the guarded loop delivering only loud fetches, violations
// polled only after callbacks, spin loops retiring their repeats
// without running them. Every observable must match the reference,
// and the watcher stream may differ from it only by fetches and reads
// the filter calls quiet. UltrasonicRanger, which waits for its echo in
// a status poll, must skip cycles in every column.
func TestBlockAdmittedDifferential(t *testing.T) {
	appMatrix(t, func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) {
		var filter admitFilter
		admitted := runObserved(t, p, app, build, spec, watchAdmitted(&filter))
		ref := runObserved(t, p, app, build, spec, reference)
		dropped := compareAdmitted(t, what, admitted, ref, filter)
		if dropped == 0 {
			t.Errorf("%s: no fetch was filtered; the admitted path never ran", what)
		}
		if app.Name == "UltrasonicRanger" && admitted.skipped == 0 {
			t.Errorf("%s: no cycle was skipped in the echo poll", what)
		}
		t.Logf("%s: %d of %d events dropped (%.1f%%), %d of %d cycles skipped", what, dropped, len(ref.events),
			100*float64(dropped)/float64(len(ref.events)), admitted.skipped, admitted.res.Cycles)
	})
}

// TestFastSlowDifferential: the fast paths beneath the block layer —
// threaded-code UOps, direct RAM access, page-table bus dispatch —
// against the reference's generic interpreter, with the production
// machine driven one Machine.Step at a time so no block or tick batch
// stands between them. Every fetch is delivered on both sides, so the
// streams must be identical.
func TestFastSlowDifferential(t *testing.T) {
	appMatrix(t, func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) {
		prod := runDriven(t, p, app, build, spec, nil, stepped)
		if prod.insp.Insns == 0 {
			t.Fatalf("%s: stepping retired nothing", what)
		}
		compareObserved(t, what, prod, runObserved(t, p, app, build, spec, reference))
	})
}

// TestTickEquivalence isolates the event-driven peripheral layer at
// the run loop's edge: production runs through Run in short slices
// (see sliced), so tick batches end early and the budget stop lands
// mid-block at ever new offsets. Interrupt arrival cycles, GPIO
// transition cycles, timer and ADC state and every other observable
// must match the reference's per-instruction ticking.
func TestTickEquivalence(t *testing.T) {
	appMatrix(t, func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) {
		prod := runDriven(t, p, app, build, spec, nil, sliced)
		if prod.insp.Cycles < 2*sliceCycles {
			t.Fatalf("%s: %d cycles is not enough to cross a slice edge", what, prod.insp.Cycles)
		}
		compareObserved(t, what, prod, runObserved(t, p, app, build, spec, reference))
	})
}

// TestPredecodeDifferential: production in the fleet's shape, where the
// decode cache is built once per firmware image and every machine
// installs it with UsePredecoded — here one cache per app and image,
// built on the first column's machine and shared by every defense
// column that runs the same image — watched through the defense's own
// fetch filter. The shared cache and its blocks must be as invisible
// as a machine's own: every observable must match the reference, and
// the stream may differ from it only by quiet fetches.
func TestPredecodeDifferential(t *testing.T) {
	caches := map[string]*isa.Predecoded{}
	appMatrix(t, func(t *testing.T, what string, p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) {
		key := fmt.Sprintf("%s instrumented=%v", app.Name, spec.Instrumented)
		pre, ok := caches[key]
		if !ok {
			pre = newLoadedMachine(t, p, build, spec).CPU.Predecoded()
			caches[key] = pre
		}
		var filter admitFilter
		admit := watchAdmitted(&filter)
		shared := runObserved(t, p, app, build, spec, func(m *core.Machine) {
			m.UsePredecoded(pre)
			admit(m)
		})
		if dropped := compareAdmitted(t, what, shared, runObserved(t, p, app, build, spec, reference), filter); dropped == 0 {
			t.Errorf("%s: no fetch was filtered; the admitted path never ran", what)
		}
	})
}

// selfModCase is one shape of code patched at run time on the
// unprotected baseline, where PMEM writes are legal.
type selfModCase struct {
	name, src string
	want      [3]uint16 // r9, r10 and r11 after the run
}

// selfModifying returns both shapes. Each patch turns an "inc" into
// "add #1, r10" (the encoding of inc r10).
func selfModifying(t *testing.T) []selfModCase {
	t.Helper()
	patch := isa.MustEncode(isa.Instruction{
		Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(10),
	})
	if len(patch) != 1 {
		t.Fatalf("patch encodes to %d words, want 1", len(patch))
	}
	return []selfModCase{
		// next-pass: the store turns "inc r9" at site into "inc r10"
		// for the second pass.
		{"next-pass", fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #2, r12
loop:
site:
    inc r9
    mov #0x%04X, &site
    dec r12
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, patch[0]), [3]uint16{1, 1, 0}},
		// same-block: site2 initially holds "inc r11"; the straight-
		// line run site..site2, one fused block, writes "inc r10" over
		// site2 before control reaches it on every pass.
		{"same-block", fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #3, r12
loop:
site:
    inc r9
    mov #0x%04X, &site2
site2:
    inc r11
    dec r12
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, patch[0]), [3]uint16{3, 3, 0}},
	}
}

// selfModDifferential builds the named selfModifying case, runs it on
// the production path driven by run and on the reference machine, and
// requires identical observables and the patched registers. For the
// same-block case it first asserts that site..site2 is one fused block.
func selfModDifferential(t *testing.T, name string, run drive) {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range selfModifying(t) {
		if tc.name != name {
			continue
		}
		prog, err := p.BuildOriginal(tc.name+".s", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if site2, ok := prog.Symbols["site2"]; ok {
			probe, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
			if err != nil {
				t.Fatal(err)
			}
			if err := probe.LoadFirmware(prog.Image); err != nil {
				t.Fatal(err)
			}
			b := probe.EnablePredecode().At(prog.Symbols["site"])
			if b == nil || b.Ops[len(b.Ops)-1].PC < site2 {
				t.Fatalf("%s: no fused block runs from site through site2", tc.name)
			}
		}
		app := apps.App{Name: tc.name, Source: tc.src, MaxCycles: 100_000}
		build := &core.BuildResult{Original: prog}
		prod := runDriven(t, p, app, build, core.DefenseBaseline, nil, run)
		ref := runObserved(t, p, app, build, core.DefenseBaseline, reference)
		compareObserved(t, tc.name, prod, ref)
		if got := [3]uint16{prod.regs[9], prod.regs[10], prod.regs[11]}; got != tc.want || !prod.res.Halted {
			t.Errorf("%s: patched loop executed wrong: halted %v, r9/r10/r11 = %v, want %v",
				tc.name, prod.res.Halted, got, tc.want)
		}
		return
	}
	t.Fatalf("no self-modifying case %q", name)
}

// TestPredecodeSelfModifyingCode: a store patches an instruction the
// loop already ran. It must stale the predecoded entry and the block
// containing it, so the next pass re-decodes the patched word live,
// exactly as the reference executes it.
func TestPredecodeSelfModifyingCode(t *testing.T) {
	selfModDifferential(t, "next-pass", running)
}

// TestBlockSelfModifying: a store patches a later instruction of the
// very block it runs in. The block must end before the patched op so
// that op is re-decoded live, exactly as the reference executes it.
func TestBlockSelfModifying(t *testing.T) {
	selfModDifferential(t, "same-block", running)
}

// TestPredecodeSelfModifyingPoke: a harness poke between runs — a
// Space.StoreWord into a cached code word, as attacks.ExecuteOn's Poke
// makes — lands off the CPU, where no direct store clears the block
// executor's summary of the written-page mask. The next run must still
// see it: the loop's remaining passes execute the patched instruction,
// exactly as on the reference.
func TestPredecodeSelfModifyingPoke(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	patch := isa.MustEncode(isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(10)})
	const passes = 40
	src := fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #%d, r12
loop:
site:
    inc r9
    dec r12
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, passes)
	prog, err := p.BuildOriginal("selfmod-poke.s", src)
	if err != nil {
		t.Fatal(err)
	}
	site := prog.Symbols["site"]
	// poked runs a few passes of the loop, patches "inc r9" at site into
	// "inc r10" from outside the CPU, and runs on to the halt.
	poked := func(m *core.Machine, budget uint64) (core.RunResult, error) {
		c0, i0 := m.CPU.Cycles, m.CPU.Insns
		if _, err := m.Run(60); err != core.ErrCycleBudget {
			t.Fatalf("first run: %v, want the cycle budget", err)
		}
		m.Space.StoreWord(site, patch[0])
		res, err := m.Run(budget)
		res.Cycles, res.Insns = m.CPU.Cycles-c0, m.CPU.Insns-i0
		return res, err
	}
	app := apps.App{Name: "selfmod-poke", Source: src, MaxCycles: 100_000}
	build := &core.BuildResult{Original: prog}
	prod := runDriven(t, p, app, build, core.DefenseBaseline, nil, poked)
	ref := runDriven(t, p, app, build, core.DefenseBaseline, reference, poked)
	compareObserved(t, "poke", prod, ref)
	if r9, r10 := prod.regs[9], prod.regs[10]; !prod.res.Halted || r9 == 0 || r10 == 0 || r9+r10 != passes {
		t.Errorf("poked loop executed wrong: halted %v, r9 %d passes before the poke, r10 %d after, want %d in all",
			prod.res.Halted, r9, r10, passes)
	}
}

// TestFastSlowSelfModifying runs both patch shapes with the production
// machine stepped (see stepped), where no block ends at the patch and
// the stale threaded-code entry alone must send the fetch back to live
// decode.
func TestFastSlowSelfModifying(t *testing.T) {
	for _, tc := range selfModifying(t) {
		selfModDifferential(t, tc.name, stepped)
	}
}

// TestTickEquivalenceAcrossMonitorReset pins the case the app matrix
// misses: a peripheral (TimerA) is mid-batch when the CASU monitor
// resets the device. Batched ticking must deliver every completed
// instruction's cycles before the reset re-anchors, so post-reset timer
// state matches the reference's per-instruction ticking exactly.
func TestTickEquivalenceAcrossMonitorReset(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Start the timer, spin long enough to leave it mid-period, then
	// trip the immutability monitor with a PMEM write.
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #1000, &0x0172
    mov #1, &0x0160
    mov #60, r10
busy:
    dec r10
    jnz busy
    mov #1, &0xE000
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	prog, err := p.BuildOriginal("timer-reset.s", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(production bool) (uint16, uint64, core.RunResult, int) {
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadFirmware(prog.Image); err != nil {
			t.Fatal(err)
		}
		if production {
			m.EnablePredecode()
		}
		m.Boot()
		res, err := m.RunUntilReset(1_000_000)
		if err != nil {
			t.Fatalf("production=%v: %v", production, err)
		}
		return m.TimerA.TAR, m.TimerA.Wraps, res, m.ResetCount
	}
	bTAR, bWraps, bRes, bResets := run(true)
	eTAR, eWraps, eRes, eResets := run(false)
	if bResets != 1 || eResets != 1 {
		t.Fatalf("expected exactly one monitor reset, got %d (production) / %d (reference)", bResets, eResets)
	}
	if bTAR != eTAR || bWraps != eWraps {
		t.Errorf("timer state diverged across reset: TAR/Wraps %d/%d (production) vs %d/%d (reference)",
			bTAR, bWraps, eTAR, eWraps)
	}
	if bRes.Cycles != eRes.Cycles || bRes.Insns != eRes.Insns {
		t.Errorf("RunResult diverged: %d/%d vs %d/%d cycles/insns", bRes.Cycles, bRes.Insns, eRes.Cycles, eRes.Insns)
	}
}
