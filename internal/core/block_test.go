package core_test

import (
	"fmt"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
)

// TestBlockDeadlineStraddle pins the admission rule: a basic block
// whose precomputed cycle total would straddle the fused
// deadline/budget limit must fall back to per-instruction dispatch so
// peripheral events and interrupt acceptance land on the exact cycle
// the reference machine sees.
// TimerA runs with a period much shorter than the straight-line run in
// the loop body, so nearly every block straddles a deadline.
func TestBlockDeadlineStraddle(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Timer period 50 cycles; the loop body is a straight-line run of
	// ~30 instructions (~45+ cycles) ending in a backward jump, so
	// block admission keeps colliding with the timer deadline. The
	// handler counts interrupts in r15.
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #50, &0x0172
    mov #5, &0x0160
    mov #200, r10
    eint
loop:
    add #1, r4
    add #1, r5
    add #1, r6
    add #1, r7
    add #1, r8
    add #1, r9
    xor r4, r11
    xor r5, r11
    xor r6, r11
    xor r7, r11
    add r4, r12
    add r5, r12
    add r6, r12
    add r7, r12
    add #1, r4
    add #1, r5
    add #1, r6
    add #1, r7
    add #1, r8
    add #1, r9
    xor r4, r11
    xor r5, r11
    xor r6, r11
    xor r7, r11
    add r4, r12
    add r5, r12
    dec r10
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
handler:
    add #1, r15
    reti
.org 0xFFF0
.word handler
.org 0xFFFE
.word reset
`
	app := apps.App{Name: "deadline-straddle", Source: src, MaxCycles: 1_000_000}
	build, err := p.BuildOriginal("straddle.s", src)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &core.BuildResult{Original: build}

	blocks := runObserved(t, p, app, wrapped, core.DefenseBaseline, nil)
	ref := runObserved(t, p, app, wrapped, core.DefenseBaseline, reference)
	compareObserved(t, "deadline-straddle", blocks, ref)
	if len(blocks.irqCycles) == 0 {
		t.Fatal("straddle workload accepted no interrupts; the test is vacuous")
	}
	if !blocks.res.Halted {
		t.Fatalf("straddle workload did not halt: %+v", blocks.res)
	}
}

// TestBlockDifferentialUnwatched re-runs the app matrix with NO watcher
// installed, the configuration the fleet runs: the pure-block fast
// path (bulk accounting, dead-flag elision, in-place self-loops) runs
// unguarded. The full register file — the SR in particular, where a
// wrong liveness marking would surface — must match the reference
// machine exactly.
func TestBlockDifferentialUnwatched(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(app apps.App, build *core.BuildResult, spec *core.DefenseSpec, production bool) (core.RunResult, [16]uint16, int, *apps.Inspection) {
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
		if production {
			m.EnablePredecode()
		}
		if app.UARTInput != "" {
			m.UART.Feed([]byte(app.UARTInput))
		}
		m.Boot()
		res, runErr := m.Run(app.MaxCycles)
		if runErr != nil {
			t.Fatalf("%s production=%v: %v", app.Name, production, runErr)
		}
		return res, m.CPU.R, m.Space.BusErrors, apps.Inspect(m, res)
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			build, err := p.Build(app.Name+".s", app.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range core.Defenses() {
				onRes, onR, onBE, onInsp := run(app, build, spec, true)
				offRes, offR, offBE, offInsp := run(app, build, spec, false)
				what := fmt.Sprintf("%s defense=%s", app.Name, spec.Name)
				if onRes.Cycles != offRes.Cycles || onRes.Insns != offRes.Insns {
					t.Errorf("%s: %d/%d vs %d/%d cycles/insns", what,
						onRes.Cycles, onRes.Insns, offRes.Cycles, offRes.Insns)
				}
				if onR != offR {
					t.Errorf("%s: register files diverged:\n%v\n%v", what, onR, offR)
				}
				if onBE != offBE {
					t.Errorf("%s: bus errors %d vs %d", what, onBE, offBE)
				}
				if err := apps.Equivalent(onInsp, offInsp); err != nil {
					t.Errorf("%s: %v", what, err)
				}
			}
		})
	}
}

// TestBlockPureKernelDifferential drives the pure fast path through the
// flag-sensitive shapes the app matrix may not hit with interrupts
// disabled: carry chains (addc/subc), BCD adds, compares and bit tests
// with partially dead intermediate flags, SR read as data, and a
// counted self-loop. The final register file (SR included) and the
// flag words stored to memory must match the reference machine.
func TestBlockPureKernelDifferential(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0x7FFF, r4
    mov #0x8001, r5
    mov #100, r10
kernel:
    add r4, r5
    addc r5, r6
    mov sr, r7
    subc r4, r8
    dadd r5, r9
    cmp r6, r9
    mov sr, r11
    bit #0x0101, r9
    xor r7, r12
    and r11, r13
    bic r4, r14
    bis r5, r14
    sub #3, r4
    dec r10
    jnz kernel
    mov sr, &0x0300
    mov r7, &0x0302
    mov r11, &0x0304
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	prog, err := p.BuildOriginal("pure-kernel.s", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(production bool) (core.RunResult, [16]uint16, []uint16) {
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
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
		res, err := m.Run(1_000_000)
		if err != nil {
			t.Fatalf("production=%v: %v", production, err)
		}
		stored := []uint16{
			m.Space.LoadWord(0x0300), m.Space.LoadWord(0x0302), m.Space.LoadWord(0x0304),
		}
		return res, m.CPU.R, stored
	}
	onRes, onR, onStored := run(true)
	offRes, offR, offStored := run(false)
	if onRes.Cycles != offRes.Cycles || onRes.Insns != offRes.Insns || !onRes.Halted {
		t.Errorf("run diverged: %+v vs %+v", onRes, offRes)
	}
	if onR != offR {
		t.Errorf("register files diverged:\n%v\n%v", onR, offR)
	}
	for i := range onStored {
		if onStored[i] != offStored[i] {
			t.Errorf("stored flag word %d: %04x vs %04x", i, onStored[i], offStored[i])
		}
	}
}

// TestBlockTablesShared asserts the fleet-facing sharing property: two
// machines installing the same predecode cache run blocks from that one
// table, fused once when it was built (the per-ROM artifact).
func TestBlockTablesShared(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app := apps.All()[0]
	build, err := p.Build(app.Name+".s", app.Source)
	if err != nil {
		t.Fatal(err)
	}
	newM := func() *core.Machine {
		m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.LoadFirmware(build.Original.Image); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := newM()
	pre := a.EnablePredecode()
	if pre.Len() == 0 {
		t.Fatal("no blocks fused for the application image")
	}
	b := newM()
	b.UsePredecoded(pre)
	if a.CPU.Predecoded() != pre || b.CPU.Predecoded() != pre {
		t.Fatal("the machines do not share the per-ROM table")
	}
}
