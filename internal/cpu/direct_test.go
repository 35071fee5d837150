package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// busOnly hides mem.Space's DirectBus refinement, so a CPU over it makes
// every data access through the Bus interface: the reference the
// direct-RAM path is checked against.
type busOnly struct{ s *mem.Space }

func (b busOnly) LoadWord(addr uint16) uint16     { return b.s.LoadWord(addr) }
func (b busOnly) StoreWord(addr uint16, v uint16) { b.s.StoreWord(addr, v) }
func (b busOnly) LoadByte(addr uint16) uint8      { return b.s.LoadByte(addr) }
func (b busOnly) StoreByte(addr uint16, v uint8)  { b.s.StoreByte(addr, v) }

// logDev is a word-only peripheral that logs every access.
type logDev struct {
	regs map[uint16]uint16
	log  []string
}

func (d *logDev) LoadWord(addr uint16) uint16 {
	d.log = append(d.log, fmt.Sprintf("LW %04x", addr))
	return d.regs[addr] + 0x0101
}

func (d *logDev) StoreWord(addr uint16, v uint16) {
	d.log = append(d.log, fmt.Sprintf("SW %04x %04x", addr, v))
	d.regs[addr] = v
}

// eventLog is a Watcher recording every signal as text.
type eventLog []string

func (e *eventLog) OnFetch(prev, pc uint16) { *e = append(*e, fmt.Sprintf("F %04x %04x", prev, pc)) }
func (e *eventLog) OnRead(pc, addr uint16, b bool) {
	*e = append(*e, fmt.Sprintf("R %04x %04x %v", pc, addr, b))
}
func (e *eventLog) OnWrite(pc, addr uint16, b bool, v uint16) {
	*e = append(*e, fmt.Sprintf("W %04x %04x %v %04x", pc, addr, b, v))
}
func (e *eventLog) OnInterrupt(pc uint16, line int) {
	*e = append(*e, fmt.Sprintf("I %04x %d", pc, line))
}

// directProgram is a loop touching every kind of data access: word and
// byte loads and stores to DMEM (odd addresses, auto-increment,
// read-modify-write), a word-only peripheral (byte stores synthesized),
// unmapped space, the stack, and PMEM, including a store that rewrites
// a code word in place. The rewritten word opens the subroutine, which
// starts page 0xE2, so the loop's own page is never marked and a CPU
// with a decode cache keeps running the loop from it. It returns the
// image to load at 0xE000.
func directProgram() []byte {
	const dev, hole = 0x0140, 0x1000
	// Filled in by the first layout pass; ImmExt keeps the call's size
	// independent of its target.
	var sub, self uint16
	var loop int16
	prog := func() []isa.Instruction {
		return []isa.Instruction{
			{Op: isa.MOV, Src: isa.Imm(0x0A00), Dst: isa.RegOp(isa.SP)},
			{Op: isa.MOV, Src: isa.Imm(0x0300), Dst: isa.RegOp(4)},
			{Op: isa.MOV, Src: isa.Imm(40), Dst: isa.RegOp(10)},
			// loop:
			{Op: isa.MOV, Src: isa.RegOp(10), Dst: isa.Indexed(0, 4)},
			{Op: isa.ADD, Src: isa.IndirectInc(4), Dst: isa.RegOp(5)},
			{Op: isa.MOV, Byte: true, Src: isa.RegOp(5), Dst: isa.Indexed(1, 4)},
			{Op: isa.ADD, Byte: true, Src: isa.Indexed(1, 4), Dst: isa.RegOp(6)},
			{Op: isa.ADD, Src: isa.RegOp(6), Dst: isa.Indexed(3, 4)},
			{Op: isa.MOV, Src: isa.RegOp(5), Dst: isa.Abs(dev)},
			{Op: isa.ADD, Src: isa.Abs(dev), Dst: isa.RegOp(7)},
			{Op: isa.MOV, Byte: true, Src: isa.RegOp(7), Dst: isa.Abs(dev + 3)},
			{Op: isa.ADD, Src: isa.Abs(hole), Dst: isa.RegOp(8)},
			{Op: isa.MOV, Byte: true, Src: isa.RegOp(8), Dst: isa.Abs(hole + 3)},
			{Op: isa.PUSH, Src: isa.RegOp(5)},
			{Op: isa.CALL, Src: isa.ImmExt(sub)},
			{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(9)},
			{Op: isa.MOV, Src: isa.RegOp(5), Dst: isa.Abs(0xF000)},
			{Op: isa.MOV, Src: isa.Abs(self), Dst: isa.Abs(self)},
			{Op: isa.SUB, Src: isa.Imm(1), Dst: isa.RegOp(10)},
			{Op: isa.JNE, JumpOffset: loop},
			{Op: isa.JMP, JumpOffset: -1},
			// sub:
			{Op: isa.XOR, Src: isa.RegOp(10), Dst: isa.RegOp(11)},
			{Op: isa.MOV, Byte: true, Src: isa.RegOp(11), Dst: isa.Abs(0x0401)},
			{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(isa.PC)},
		}
	}
	layout := func() ([]byte, []uint16) {
		var buf []byte
		var at []uint16
		for i, in := range prog() {
			if i == 21 { // sub
				buf = append(buf, make([]byte, 0x200-len(buf))...)
			}
			at = append(at, 0xE000+uint16(len(buf)))
			for _, w := range isa.MustEncode(in) {
				buf = append(buf, byte(w), byte(w>>8))
			}
		}
		return buf, at
	}
	_, at := layout()
	sub, self = at[21], at[21]
	// The jnz at index 19 branches back to index 3: the offset counts
	// words from the instruction after the jump.
	loop = int16((int(at[3]) - int(at[19]) - 2) / 2)
	img, _ := layout()
	return img
}

// TestDirectRAMMatchesBus runs one instruction stream on a CPU over
// mem.Space, whose plain-RAM accesses take the inlined direct path, and
// on a CPU over a wrapper exposing only cpu.Bus, for each executor:
// live decode, predecoded Step, and blocks. The wrapper has no
// written-page mask to read, so it trusts no cached decode and runs
// live throughout: the reference. Registers, memory, cycles, the pages
// marked written, the watcher stream, the peripheral's log, handler
// stores and bus errors must all match. Each side is sealed after the
// image load and cache install and restored after the run: all 64 KiB
// must equal the sealed image again, which fails on the direct side
// alone when a direct store skips its page mark.
func TestDirectRAMMatchesBus(t *testing.T) {
	img := directProgram()
	type side struct {
		c      *CPU
		s      *mem.Space
		dev    *logDev
		watch  eventLog
		snap   *mem.Snapshot
		sealed []byte
	}
	build := func(direct bool, executor string) *side {
		sd := &side{dev: &logDev{regs: map[uint16]uint16{}}}
		sd.s = mem.MustNewSpace(mem.DefaultLayout(), mem.Mapping{Start: 0x0140, End: 0x0143, Handler: sd.dev})
		if err := sd.s.LoadImage(0xE000, img); err != nil {
			t.Fatal(err)
		}
		if err := sd.s.LoadImage(0xFFFE, []byte{0x00, 0xE0}); err != nil {
			t.Fatal(err)
		}
		if direct {
			sd.c = New(sd.s)
		} else {
			sd.c = New(busOnly{sd.s})
		}
		if executor != "live" {
			predecoded(sd.c, sd.s)
		}
		sd.snap, sd.sealed = sd.s.Snapshot(), sd.s.ReadRaw(0, mem.Size)
		sd.c.Watch = &sd.watch
		sd.c.Reset(0xFFFE)
		return sd
	}
	const budget = 6000
	for _, executor := range []string{"live", "predecoded", "blocks"} {
		var sides [2]*side
		for i, direct := range []bool{true, false} {
			sd := build(direct, executor)
			for sd.c.Cycles < budget {
				if executor == "blocks" {
					if ran, _ := sd.c.RunBlocks(budget, nil); ran {
						continue
					}
				}
				if _, err := sd.c.Step(); err != nil {
					t.Fatalf("%s direct=%v: %v", executor, direct, err)
				}
			}
			sides[i] = sd
		}
		d, b := sides[0], sides[1]
		if d.c.R != b.c.R {
			t.Errorf("%s: registers\n direct: %v\n    bus: %v", executor, d.c.R, b.c.R)
		}
		if d.c.Cycles != b.c.Cycles || d.c.Insns != b.c.Insns {
			t.Errorf("%s: cycles/insns %d/%d vs %d/%d", executor, d.c.Cycles, d.c.Insns, b.c.Cycles, b.c.Insns)
		}
		if !reflect.DeepEqual(d.s.ReadRaw(0, mem.Size), b.s.ReadRaw(0, mem.Size)) {
			t.Errorf("%s: memory diverged", executor)
		}
		_, dw, _ := d.s.Direct()
		_, bw, _ := b.s.Direct()
		if *dw != *bw {
			t.Errorf("%s: written pages %016x vs %016x", executor, *dw, *bw)
		}
		for _, l := range []struct {
			name string
			a, b []string
		}{
			{"watcher", d.watch, b.watch},
			{"peripheral", d.dev.log, b.dev.log},
		} {
			if !reflect.DeepEqual(l.a, l.b) {
				t.Errorf("%s: %s log diverged: %d vs %d entries", executor, l.name, len(l.a), len(l.b))
				for i := range min(len(l.a), len(l.b)) {
					if l.a[i] != l.b[i] {
						t.Errorf("%s: first difference at %d: %q vs %q", executor, i, l.a[i], l.b[i])
						break
					}
				}
			}
		}
		if d.s.BusErrors != b.s.BusErrors || d.s.HandlerStores() != b.s.HandlerStores() {
			t.Errorf("%s: bus errors/handler stores %d/%d vs %d/%d", executor,
				d.s.BusErrors, d.s.HandlerStores(), b.s.BusErrors, b.s.HandlerStores())
		}
		// Guard against a vacuous pass: the loop must have finished and
		// every kind of access must have happened, marking the DMEM
		// pages it stores to (0x03, 0x04), the stack's (0x09) and the
		// two PMEM pages (0xE2 for the self-rewrite, 0xF0). With blocks,
		// the loop must have run in them.
		wantPages := [4]uint64{1<<0x03 | 1<<0x04 | 1<<0x09, 0, 0, 1<<(0xE2-0xC0) | 1<<(0xF0-0xC0)}
		if d.c.R[10] != 0 || d.s.BusErrors == 0 || d.s.HandlerStores() == 0 || *dw != wantPages ||
			executor == "blocks" && d.c.GuardedInsns < 40*10 {
			t.Errorf("%s: stream did not run its course: r10=%d bus errors %d handler stores %d written pages %016x, want %016x, %d block instructions",
				executor, d.c.R[10], d.s.BusErrors, d.s.HandlerStores(), *dw, wantPages, d.c.GuardedInsns)
		}
		for i, sd := range sides {
			name := [2]string{"direct", "bus"}[i]
			if err := sd.s.Restore(sd.snap); err != nil {
				t.Fatal(err)
			}
			got := sd.s.ReadRaw(0, mem.Size)
			for addr := range got {
				if got[addr] != sd.sealed[addr] {
					t.Errorf("%s %s: restored memory differs first at 0x%04x: %02x, sealed %02x",
						executor, name, addr, got[addr], sd.sealed[addr])
					break
				}
			}
		}
	}
}
