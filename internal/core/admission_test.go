package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/asm"
	"eilid/internal/casu"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/mem"
)

// admitFilter is what block execution asks of a watcher: which
// fetches it may skip inside a block, and which reads it may skip in
// the repeats of a spin loop.
type admitFilter interface {
	cpu.FetchFilter
	cpu.ReadFilter
}

// quietRecorder is an eventRecorder that also forwards the monitor's
// QuietFetch and QuietRead, so block execution filters fetches and
// skips spin loops through it exactly as it does for the bare monitor.
// (A plain eventRecorder has neither, which pins every-fetch delivery
// and keeps every spin running.)
type quietRecorder struct {
	*eventRecorder
	filter admitFilter
}

func (r *quietRecorder) QuietFetch(prev, pc uint16) bool { return r.filter.QuietFetch(prev, pc) }

func (r *quietRecorder) QuietRead(pc, addr uint16) bool { return r.filter.QuietRead(pc, addr) }

// compareAdmitted asserts that a production run whose watcher filters
// fetches and reads matches the reference machine in every observable,
// and that its watcher stream is the reference stream with only
// fetches QuietFetch and reads QuietRead call quiet removed. It returns
// how many were removed.
func compareAdmitted(t *testing.T, what string, admitted, reference observed, quiet admitFilter) int {
	t.Helper()
	a, r := admitted, reference
	a.events, r.events = nil, nil
	compareObserved(t, what, a, r)
	j, dropped := 0, 0
	for _, ev := range reference.events {
		if j < len(admitted.events) && admitted.events[j] == ev {
			j++
			continue
		}
		if !(ev.kind == 'F' && quiet.QuietFetch(ev.a, ev.b) || ev.kind == 'R' && quiet.QuietRead(ev.a, ev.b)) {
			t.Errorf("%s: reference event %v is missing from the block run (block event %d of %d)",
				what, ev, j, len(admitted.events))
			return dropped
		}
		dropped++
	}
	if j != len(admitted.events) {
		t.Errorf("%s: block run has %d events the reference lacks, from %v",
			what, len(admitted.events)-j, admitted.events[j])
	}
	return dropped
}

// compareRAM asserts that a production machine's 64 KiB of RAM equal
// the reference machine's after their runs.
func compareRAM(t *testing.T, what string, prod, ref *core.Machine) {
	t.Helper()
	if a, b := prod.Space.ReadRaw(0, mem.Size), ref.Space.ReadRaw(0, mem.Size); !bytes.Equal(a, b) {
		i := 0
		for a[i] == b[i] {
			i++
		}
		t.Errorf("%s: RAM differs first at 0x%04x: %02x, reference %02x", what, i, a[i], b[i])
	}
}

// allQuiet is the filter of an unmonitored machine: a machine without
// a watcher needs no fetch inside a block and no read of a spin.
type allQuiet struct{}

func (allQuiet) QuietFetch(prev, pc uint16) bool { return true }

func (allQuiet) QuietRead(pc, addr uint16) bool { return true }

// filterOf returns the filter block execution applies on m.
func filterOf(m *core.Machine) admitFilter {
	if m.Monitor == nil {
		return allQuiet{}
	}
	return m.Monitor
}

// cornerBudget is the cycle budget of a corner run.
const cornerBudget = 200_000

// cornerRun loads prog unmodified on a machine of the given defense
// (with the secure ROM where the defense needs it), on the production
// path or as the cache-less reference, watches it through a
// quietRecorder, optionally pokes once the PC reaches pokeAt, and runs
// until the first reset, halt or the budget.
func cornerRun(t *testing.T, p *core.Pipeline, spec *core.DefenseSpec, prog *asm.Program, production bool, pokeAt uint16, poke func(*core.Machine), budget uint64) (observed, *core.Machine) {
	t.Helper()
	opts := core.MachineOptions{Config: p.Config(), Defense: spec}
	if spec.Instrumented {
		opts.ROM = p.ROM()
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		t.Fatal(err)
	}
	if production {
		m.EnablePredecode()
	}
	rec := &eventRecorder{inner: m.Monitor, clock: func() uint64 { return m.CPU.Cycles }}
	m.CPU.Watch = &quietRecorder{eventRecorder: rec, filter: filterOf(m)}
	m.Boot()
	if poke != nil {
		for steps := 0; m.CPU.PC() != pokeAt; steps++ {
			if steps > 10_000 {
				t.Fatalf("never reached 0x%04x", pokeAt)
			}
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		poke(m)
	}
	res, runErr := m.RunUntilReset(budget)
	return observation(m, rec, res, runErr), m
}

// cornerDifferential builds src, runs it on the production path and on
// the reference machine, and compares the two as
// TestPredecodeDifferential does through the defense's filter. It
// returns the production run, its machine, its first reset reason and
// the symbols.
func cornerDifferential(t *testing.T, p *core.Pipeline, spec *core.DefenseSpec, src, pokeSym string, poke func(*core.Machine)) (observed, *core.Machine, *casu.Violation, map[string]uint16) {
	t.Helper()
	prog, err := p.BuildOriginal("corner.s", src)
	if err != nil {
		t.Fatal(err)
	}
	pokeAt := prog.Symbols[pokeSym]
	admitted, m := cornerRun(t, p, spec, prog, true, pokeAt, poke, cornerBudget)
	reference, _ := cornerRun(t, p, spec, prog, false, pokeAt, poke, cornerBudget)
	compareAdmitted(t, spec.Name, admitted, reference, m.Monitor)
	var v *casu.Violation
	if len(m.ResetReasons) > 0 {
		v = &m.ResetReasons[0]
	}
	return admitted, m, v, prog.Symbols
}

// TestBlockAdmissionROMFallThrough: straight-line code at the top of
// PMEM that falls through 0xF7FE into the secure ROM at 0xF800. PMEM and
// the ROM abut, so the fall-through is inside one fused block, and
// eilid must hear it (its secure-state changes) while the fetches
// before it stay quiet. The selector either takes the ROM's init path
// and leaves through the exit, or fails the gateway's check and resets.
func TestBlockAdmissionROMFallThrough(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []int{core.SelInit, 0x55} {
		src := fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #%d, r4
    call #top
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xF7F0
top:
    mov #1, r6
    add r6, r7
    add r7, r8
    add r8, r9
    add r9, r10
    add r10, r11
    add r11, r12
    add r12, r13
.org 0xFFFE
.word reset
`, sel)
		run, m, v, syms := cornerDifferential(t, p, core.DefenseEILID, src, "", nil)
		if b := m.CPU.Predecoded().At(syms["top"]); b == nil || b.Ops[len(b.Ops)-1].PC < 0xF800 {
			t.Fatal("no fused block runs from top into the ROM")
		}
		if !slices.Contains(run.events, event{kind: 'F', a: 0xf7fe, b: 0xf800}) {
			t.Error("the block run skipped the fetch that crosses into the ROM")
		}
		switch {
		case sel == core.SelInit && (!run.res.Halted || v != nil):
			t.Errorf("init through the ROM: halted %v, reset %v", run.res.Halted, v)
		case sel != core.SelInit && (v == nil || v.Kind != casu.ViolationCFIFail):
			t.Errorf("bad selector: reset %v, want %s", v, casu.ViolationCFIFail)
		}
	}
	mon := core.DefenseEILID.New(core.DefenseEnv{Config: p.Config(), ROM: p.ROM()})
	if !mon.QuietFetch(0xF7FC, 0xF7FE) || mon.QuietFetch(0xF7FE, 0xF800) {
		t.Error("eilid must call PMEM steps quiet and the PMEM-to-ROM fall-through loud")
	}
}

// TestBlockAdmissionROMEntryBypass: a jump into the secure ROM past its
// entry point that lands on a pure, admitted block. The entry fetch
// trips, so op 0 alone retires and the reset comes at the same PC and
// cycle as under per-instruction dispatch.
func TestBlockAdmissionROMEntryBypass(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	probe, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		t.Fatal(err)
	}
	blocks := probe.EnablePredecode()
	var target uint16
	l := p.Config().Layout
	for a := p.ROM().Entry + 2; a < l.SecureROMEnd && target == 0; a += 2 {
		b := blocks.At(a)
		if b == nil || !b.Pure || len(b.Ops) < 2 {
			continue
		}
		quiet := true
		for k := 1; k < len(b.Ops); k++ {
			quiet = quiet && probe.Monitor.QuietFetch(b.Ops[k-1].PC, b.Ops[k].PC)
		}
		if quiet {
			target = a
		}
	}
	if target == 0 {
		t.Fatal("no pure multi-op block past the ROM entry point")
	}
	src := fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #1, r4
jump:
    br #0x%04X
.org 0xFFFE
.word reset
`, target)
	run, _, v, syms := cornerDifferential(t, p, core.DefenseEILID, src, "", nil)
	if v == nil || v.Kind != casu.ViolationSecureEntry || v.PC != syms["jump"] || v.Addr != target {
		t.Fatalf("reset %v, want %s from 0x%04x to 0x%04x", v, casu.ViolationSecureEntry, syms["jump"], target)
	}
	if run.res.Insns != 4 {
		t.Errorf("%d instructions retired, want the 3 before the jump target plus op 0", run.res.Insns)
	}
}

// TestBlockAdmissionShadowCall: register ops ending in a call whose
// callee returns. The shadow stack must hear the call and the return —
// no false shadow-ra-mismatch — and a corrupted return must still trip
// at the ret, on the same cycle as per-instruction dispatch.
func TestBlockAdmissionShadowCall(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		smash := ""
		if corrupt {
			smash = "mov #spin, 0(sp)"
		}
		src := fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #3, r10
loop:
    mov r10, r4
    add r4, r5
    xor r5, r6
    call #func
    dec r10
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
func:
    add #1, r7
    %s
fret:
    ret
.org 0xFFFE
.word reset
`, smash)
		run, _, v, syms := cornerDifferential(t, p, core.DefenseShadow, src, "", nil)
		switch {
		case !corrupt && (!run.res.Halted || v != nil):
			t.Errorf("genuine calls: halted %v, reset %v", run.res.Halted, v)
		case corrupt && (v == nil || v.Kind != casu.ViolationShadowRA || v.PC != syms["fret"]):
			t.Errorf("corrupted return: reset %v, want %s at 0x%04x", v, casu.ViolationShadowRA, syms["fret"])
		}
	}
}

// TestBlockAdmissionCritVarPoke: the harness writes the watched word
// 0x0400 just before a long pure self-loop. The loop's entry fetch is
// delivered, so critvar trips at the first fetch after the poke, on the
// same cycle as per-instruction dispatch.
func TestBlockAdmissionCritVarPoke(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0x1234, &0x0400
    mov #30000, r10
loop:
    dec r10
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	run, _, v, syms := cornerDifferential(t, p, core.DefenseCritVar, src, "loop", func(m *core.Machine) {
		m.Space.StoreWord(0x0400, 0xBEEF)
	})
	if v == nil || v.Kind != casu.ViolationCritVar || v.PC != syms["loop"] || v.Addr != 0x0400 {
		t.Fatalf("reset %v, want %s at 0x%04x", v, casu.ViolationCritVar, syms["loop"])
	}
	if run.res.Insns != 1 {
		t.Errorf("%d instructions retired after the poke, want 1", run.res.Insns)
	}
}

// TestBlockAdmissionDataTrip: a store into PMEM, away from the running
// code, trips eilid through OnWrite in the middle of a block whose
// following fetches are quiet. The violation poll after that op must
// stop the block there, so the reset comes on the store's cycle.
func TestBlockAdmissionDataTrip(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #5, r4
    add r4, r5
store:
    mov r5, &0xE400
    add r5, r6
    add r6, r7
    add r7, r8
    mov #0, &0x00FC
.org 0xFFFE
.word reset
`
	run, _, v, syms := cornerDifferential(t, p, core.DefenseEILID, src, "", nil)
	if v == nil || v.Kind != casu.ViolationPMEMWrite || v.PC != syms["store"] || v.Addr != 0xE400 {
		t.Fatalf("reset %v, want %s at 0x%04x", v, casu.ViolationPMEMWrite, syms["store"])
	}
	if run.res.Insns != 4 {
		t.Errorf("%d instructions retired, want 4 up to and including the store", run.res.Insns)
	}
}

// TestBlockPureShare gates the executor counters exactly: shadow and
// critvar run the same build as baseline and need no fetch inside a
// pure block, so they retire exactly baseline's pure-path count, app by
// app; eilid, on its instrumented build, retires at least 0.88 of its
// instructions on the pure path. FireSensor, the app that runs with
// interrupts enabled, retires at least 0.90 of its instructions on the
// pure path in every column, which it can only do with the interrupt
// poll hoisted out of pure blocks.
func TestBlockPureShare(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var eilidPure, eilidInsns uint64
	for _, app := range apps.All() {
		build, err := p.Build(app.Name+".s", app.Source)
		if err != nil {
			t.Fatal(err)
		}
		pure := map[string]uint64{}
		for _, spec := range core.Defenses() {
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
			if app.UARTInput != "" {
				m.UART.Feed([]byte(app.UARTInput))
			}
			m.Boot()
			if _, err := m.Run(app.MaxCycles); err != nil {
				t.Fatalf("%s %s: %v", app.Name, spec.Name, err)
			}
			c := m.CPU
			if c.PureInsns+c.GuardedInsns > c.Insns {
				t.Errorf("%s %s: pure %d + guarded %d exceed %d instructions",
					app.Name, spec.Name, c.PureInsns, c.GuardedInsns, c.Insns)
			}
			pure[spec.Name] = c.PureInsns
			if app.Name == "FireSensor" {
				share := float64(c.PureInsns) / float64(c.Insns)
				t.Logf("FireSensor %s pure share %.4f", spec.Name, share)
				if share < 0.90 {
					t.Errorf("FireSensor %s retired %.4f of its instructions on the pure path, want at least 0.90",
						spec.Name, share)
				}
			}
			if spec == core.DefenseEILID {
				eilidPure += c.PureInsns
				eilidInsns += c.Insns
			}
		}
		for _, name := range []string{"shadow", "critvar"} {
			if pure[name] != pure["baseline"] {
				t.Errorf("%s: %s retired %d instructions on the pure path, baseline %d",
					app.Name, name, pure[name], pure["baseline"])
			}
		}
	}
	share := float64(eilidPure) / float64(eilidInsns)
	t.Logf("eilid pure share %.4f (%d of %d)", share, eilidPure, eilidInsns)
	if share < 0.88 {
		t.Errorf("eilid retired %.4f of its instructions on the pure path, want at least 0.88", share)
	}
}
