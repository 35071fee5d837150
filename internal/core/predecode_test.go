package core_test

import (
	"errors"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/isa"
)

// TestPredecodeSkipsUnmappedWindows: the default layout has an
// unmapped hole between the secure ROM and the IVT; a live fetch whose
// speculative three-word window dips into it reads 0xFFFF off the bus
// and counts a bus error, side effects the cache would skip. Such
// addresses must therefore never be cached, even when the raw bytes
// there happen to decode.
func TestPredecodeSkipsUnmappedWindows(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
	if err != nil {
		t.Fatal(err)
	}
	layout := m.Space.Layout
	romEnd := layout.SecureROMEnd // 0xFDFF; hole starts at 0xFE00
	// Plant decodable nops across the ROM/hole boundary.
	nop := isa.MustEncode(isa.Instruction{Op: isa.MOV, Src: isa.RegOp(4), Dst: isa.RegOp(4)})
	var raw []byte
	for i := 0; i < 8; i++ {
		raw = append(raw, byte(nop[0]), byte(nop[0]>>8))
	}
	if err := m.Space.LoadImage(romEnd-7, raw); err != nil {
		t.Fatal(err)
	}
	pre := m.EnablePredecode()

	inRom := romEnd - 7 // window stays inside the ROM
	if pre.At(inRom) == nil {
		t.Errorf("0x%04x: window inside ROM should be cached", inRom)
	}
	for _, a := range []uint16{romEnd - 3, romEnd - 1, romEnd + 1, romEnd + 3} {
		a &^= 1
		if pre.At(a) != nil {
			t.Errorf("0x%04x: cached although its fetch window leaves RAM-backed space", a)
		}
	}
}

// TestPredecodeSharedAcrossMachines checks the per-ROM sharing contract:
// one cache built from another machine drives a second machine with
// identical firmware to the reference machine's outcome.
func TestPredecodeSharedAcrossMachines(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := apps.ByName("TempSensor")
	build, err := p.Build(app.Name+".s", app.Source)
	if err != nil {
		t.Fatal(err)
	}

	owner, err := core.NewMachine(core.MachineOptions{Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.LoadFirmware(build.Instrumented.Image); err != nil {
		t.Fatal(err)
	}
	pre := owner.EnablePredecode()

	shared := runObserved(t, p, app, build, core.DefenseEILID, func(m *core.Machine) { m.UsePredecoded(pre) })
	ref := runObserved(t, p, app, build, core.DefenseEILID, reference)
	compareObserved(t, "shared cache", shared, ref)
}

// faultProgram counts a loop down on blocks, then reaches rra #4 (rra
// @pc+ with its operand word), which no decode cache holds and which
// faults on the live path.
const faultProgram = `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #40, r4
loop:
    add r4, r5
    dec r4
    jnz loop
fault:
    .word 0x1130, 0x0004
    jmp fault
.org 0xFFFE
.word reset
`

// TestOnlyLiveDecodeFaultsMachine: a machine that reaches an
// instruction only the live path runs stops with the same error, at the
// same PC and cycle count, on production (after its loop ran on blocks)
// as on the reference machine, in every defense column.
func TestOnlyLiveDecodeFaultsMachine(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.BuildOriginal("fault.s", faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	at := prog.Symbols["fault"]
	for _, spec := range core.Defenses() {
		prod, m := cornerRun(t, p, spec, prog, true, 0, nil, cornerBudget)
		ref, _ := cornerRun(t, p, spec, prog, false, 0, nil, cornerBudget)
		compareAdmitted(t, spec.Name, prod, ref, filterOf(m))
		var ee *cpu.ExecError
		if !errors.As(prod.err, &ee) || ee.PC != at {
			t.Errorf("%s: run ended with %v, want an ExecError at 0x%04x", spec.Name, prod.err, at)
		}
		if m.CPU.PureInsns+m.CPU.GuardedInsns == 0 {
			t.Errorf("%s: no block ran before the fault", spec.Name)
		}
	}
}
