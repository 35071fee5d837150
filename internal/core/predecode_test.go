package core_test

import (
	"testing"

	"eilid/internal/apps"
	"eilid/internal/core"
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
	if pre.EntryAt(inRom) == nil {
		t.Errorf("0x%04x: window inside ROM should be cached", inRom)
	}
	for _, a := range []uint16{romEnd - 3, romEnd - 1, romEnd + 1, romEnd + 3} {
		a &^= 1
		if pre.EntryAt(a) != nil {
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
