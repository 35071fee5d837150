package core_test

import (
	"testing"

	"eilid/internal/asm"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/mem"
	"eilid/internal/periph"
)

// stubGate is a PC-gated interrupt source in the shape of
// casu.GateIRQ: requests are invisible while the PC is in [lo, hi).
type stubGate struct {
	inner  cpu.IRQSource
	pc     func() uint16
	lo, hi uint16
}

func (g *stubGate) HighestPending() int {
	if g.Masked(g.pc()) {
		return -1
	}
	return g.inner.HighestPending()
}

func (g *stubGate) Acknowledge(line int) { g.inner.Acknowledge(line) }

func (g *stubGate) Masked(pc uint16) bool { return pc >= g.lo && pc < g.hi }

// cornerPair runs prog on the production path and on the reference
// machine, setup (when non-nil) applied right after boot, and requires
// every observable of the reference, the register file included, with
// the watcher stream differing only by quiet fetches. It returns both
// runs and the production run's machine.
func cornerPair(t *testing.T, p *core.Pipeline, spec *core.DefenseSpec, prog *asm.Program, setup func(*core.Machine)) (blk, ref observed, bm *core.Machine) {
	t.Helper()
	entry := prog.Symbols["reset"]
	blk, bm = cornerRun(t, p, spec, prog, true, entry, setup, cornerBudget)
	ref, _ = cornerRun(t, p, spec, prog, false, entry, setup, cornerBudget)
	compareAdmitted(t, spec.Name, blk, ref, filterOf(bm))
	return blk, ref, bm
}

// acceptedAt lists the interrupted PCs of the run's accepted interrupts.
func acceptedAt(o observed) []uint16 {
	var pcs []uint16
	for _, ev := range o.events {
		if ev.kind == 'I' {
			pcs = append(pcs, ev.a)
		}
	}
	return pcs
}

// TestBlockAdmissionGateFlip: an IRQ gate masks the first six ops of a
// pure straight-line loop body. A timer request raised there must be
// taken before the first unmasked op, at the same PC and cycle as under
// per-instruction dispatch, although the block was entered masked with
// the request already pending: the flip inside the block repeats the
// interrupt poll.
func TestBlockAdmissionGateFlip(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.BuildOriginal("gate-flip.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #97, &0x0172
    mov #5, &0x0160
    mov #200, r10
    eint
loop:
    add #1, r4
    add r4, r5
    add r5, r6
    add r6, r7
    xor r4, r8
    xor r5, r8
unmasked:
    add #1, r9
    dec r10
    jnz loop
    dint
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
`)
	if err != nil {
		t.Fatal(err)
	}
	loop, unmasked := prog.Symbols["loop"], prog.Symbols["unmasked"]
	blk, _, bm := cornerPair(t, p, core.DefenseBaseline, prog, func(m *core.Machine) {
		m.CPU.IRQ = &stubGate{inner: m.IRQ, pc: m.CPU.PC, lo: loop, hi: unmasked}
	})
	if b := bm.CPU.Predecoded().At(loop); b == nil || b.Ops[len(b.Ops)-1].PC <= unmasked {
		t.Fatal("no fused block runs from loop across the mask boundary")
	}
	deferred := 0
	for _, pc := range acceptedAt(blk) {
		if pc >= loop && pc < unmasked {
			t.Errorf("interrupt accepted at masked pc %04x", pc)
		}
		if pc == unmasked {
			deferred++
		}
	}
	if deferred == 0 {
		t.Error("no request was deferred to the first unmasked op")
	}
	if bm.CPU.PureInsns == 0 {
		t.Error("no pure block ran with GIE set")
	}
	t.Logf("%d interrupts, %d taken at the mask boundary", len(blk.irqCycles), deferred)
}

// TestBlockAdmissionGateROMExit: on eilid, the ROM's CFI checks run
// with GIE set behind the hardware gate. Timer requests raised while
// the PC is inside the secure ROM must be taken at the first
// instruction outside it, on the same cycle as per-instruction
// dispatch, while the ROM's own blocks run on the pure path.
func TestBlockAdmissionGateROMExit(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	build, err := p.Build("gate-rom.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #397, &0x0172
    mov #5, &0x0160
    mov #100, r10
    eint
loop:
    call #work
    dec r10
    jnz loop
    dint
    mov #0, &0x00FC
spin:
    jmp spin
work:
    add #1, r9
    ret
TICK_ISR:
    add #1, r15
    reti
.org 0xFFF0
.word TICK_ISR
.org 0xFFFE
.word reset
`)
	if err != nil {
		t.Fatal(err)
	}
	blk, ref, bm := cornerPair(t, p, core.DefenseEILID, build.Instrumented, nil)
	if blk.res.Resets != 0 || !blk.res.Halted {
		t.Fatalf("halted %v after %d resets %v", blk.res.Halted, blk.res.Resets, blk.reasons)
	}
	// In the reference every fetch is recorded, so the instruction
	// executed before each accepted interrupt is the last fetch before it.
	l := p.Config().Layout
	afterROM := 0
	var last uint16
	for _, ev := range ref.events {
		if ev.kind == 'F' {
			last = ev.b
			continue
		}
		if ev.kind == 'I' && l.InSecureROM(last) {
			afterROM++
		}
	}
	if afterROM == 0 {
		t.Error("no interrupt was held back by the secure ROM")
	}
	if bm.CPU.PureInsns == 0 {
		t.Error("no pure block ran with GIE set")
	}
	t.Logf("%d interrupts, %d taken right after the ROM", len(ref.irqCycles), afterROM)
}

// TestBlockAdmissionURXPop: reading URX pops a byte and re-raises the
// RX request while bytes remain, so it is the one loud UART register.
// With GIE set and two bytes fed, the first pop in the middle of a
// block must end the block and the re-raised request must be serviced
// right after that instruction, before the next one runs.
func TestBlockAdmissionURXPop(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.BuildOriginal("urx-pop.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
    eint
main:
    add #1, r4
    add #1, r5
pop:
    mov &0x0072, r12
    add #1, r6
    add #1, r7
    mov &0x0072, r13
    add #1, r8
    dint
    mov #0, &0x00FC
spin:
    jmp spin
rx_isr:
    add #1, r15
    mov r6, r14
    reti
.org 0xFFEE
.word rx_isr
.org 0xFFFE
.word reset
`)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, bm := cornerPair(t, p, core.DefenseBaseline, prog, func(m *core.Machine) {
		m.UART.Feed([]byte("ab"))
	})
	r := bm.CPU.R
	if r[15] != 2 || r[14] != 0 || r[12] != 'a' || r[13] != 'b' || r[6] != 1 {
		t.Errorf("r15=%d r14=%d r12=%#x r13=%#x r6=%d: want the second ISR run right after the first pop",
			r[15], r[14], r[12], r[13], r[6])
	}
	if pcs := acceptedAt(blk); len(pcs) != 2 || pcs[1] != prog.Symbols["pop"]+4 {
		t.Errorf("interrupts accepted at %04x, want the second one after the pop at %04x", pcs, prog.Symbols["pop"])
	}
}

// TestBlockAdmissionUnmappedRead: a read of unmapped space in the middle
// of a block is not a quiet load: it counts a bus error and ends the
// block, once per pass.
func TestBlockAdmissionUnmappedRead(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Config().Layout.RegionOf(0x0C00); r != mem.RegionUnmapped {
		t.Fatalf("0x0C00 is %s, want unmapped", r)
	}
	prog, err := p.BuildOriginal("unmapped.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #10, r10
loop:
    add #1, r4
    mov &0x0C00, r5
    add r5, r6
    dec r10
    jnz loop
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseCritVar} {
		blk, ref, bm := cornerPair(t, p, spec, prog, nil)
		if blk.busErrors != 10 || ref.busErrors != 10 {
			t.Errorf("%s: bus errors %d (blocks) and %d (reference), want 10", spec.Name, blk.busErrors, ref.busErrors)
		}
		// Ten unmapped reads and the halt store end their blocks.
		if n := bm.CPU.BlockExits[cpu.ExitBus]; n != 11 {
			t.Errorf("%s: %d bus exits, want 11", spec.Name, n)
		}
	}
}

// TestBlockAdmissionTimerPoll: a loop polling the timer counter with GIE
// set and a timer ISR. The TAR reads are quiet loads, so the loop runs
// as a guarded self-loop inside block execution, and every value read,
// the cycle count and each interrupt's arrival cycle must match
// per-instruction dispatch.
func TestBlockAdmissionTimerPoll(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.BuildOriginal("timer-poll.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #89, &0x0172
    mov #5, &0x0160
    eint
poll:
    mov &0x0170, r5
    add r5, r6
    cmp #12, r15
    jnc poll
    dint
    mov #0, &0x00FC
spin:
    jmp spin
handler:
    add #1, r15
    mov &0x0170, r7
    add r7, r8
    reti
.org 0xFFF0
.word handler
.org 0xFFFE
.word reset
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseShadow} {
		blk, _, bm := cornerPair(t, p, spec, prog, nil)
		if len(blk.irqCycles) != 12 || bm.CPU.R[6] == 0 {
			t.Errorf("%s: %d interrupts, TAR sum %d", spec.Name, len(blk.irqCycles), bm.CPU.R[6])
		}
		// Only the two timer setup stores and the halt store leave the
		// block through the bus; the TAR reads do not.
		if n := bm.CPU.BlockExits[cpu.ExitBus]; n != 3 {
			t.Errorf("%s: %d bus exits, want 3", spec.Name, n)
		}
		if bm.CPU.GuardedInsns < bm.CPU.Insns/2 {
			t.Errorf("%s: %d of %d instructions in the guarded loop", spec.Name, bm.CPU.GuardedInsns, bm.CPU.Insns)
		}
	}
}

// TestQuietLoadDeclarations checks the mem.QuietLoader and
// mem.StillHolder declarations of every peripheral register, with every
// clocked peripheral mid-flight and RX bytes queued: every register but
// UART RX is declared quiet, and each quiet load reads the same value
// twice and leaves the pending requests alone. Reading RX pops a byte,
// so it must stay loud. Every register declared still reads the same
// value again 100 cycles later, still before any peripheral's next
// event; the timer counter moves in that time, so it must not be
// declared still, and neither may RX.
func TestQuietLoadDeclarations(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineOptions{Config: p.Config()})
	if err != nil {
		t.Fatal(err)
	}
	m.Boot()
	s := m.Space
	s.StoreWord(0x0172, 1000) // CCR0
	s.StoreWord(0x0160, 5)    // TACTL: up mode, interrupt enabled
	s.StoreWord(0x0080, 0x11) // ADCCTL: start, interrupt enabled
	s.StoreWord(0x00A0, 1)    // USTRIG
	s.StoreByte(0x0024, 0xFF) // P1IE
	m.UART.Feed([]byte("xyz"))
	m.CPU.Cycles += 100 // before every peripheral's next event
	type load struct {
		addr     uint16
		byteWide bool
	}
	read := func(l load) uint16 {
		if l.byteWide {
			return uint16(s.LoadByte(l.addr))
		}
		return s.LoadWord(l.addr)
	}
	still := map[load]uint16{}
	type span interface{ Span() (uint16, uint16) }
	for _, d := range []span{m.Port1, m.Port2, m.TimerA, m.ADC, m.UART, m.LCD, m.Ranger, &periph.ViolationLatch{}} {
		lo, hi := d.Span()
		for a := lo; a <= hi; a++ {
			for _, byteWide := range []bool{false, true} {
				if !byteWide && a&1 != 0 {
					continue
				}
				rx := a&^1 == periph.URXAddr
				if s.QuietLoad(a, byteWide) == rx {
					t.Errorf("%04x (byte %v): quiet %v", a, byteWide, !rx)
					continue
				}
				l := load{a, byteWide}
				if moves := rx || a&^1 == 0x0170; s.HoldsStill(a, byteWide) == moves {
					t.Errorf("%04x (byte %v): still %v", a, byteWide, !moves)
				}
				if rx {
					continue
				}
				before := m.IRQ.HighestPending()
				if v1, v2 := read(l), read(l); v1 != v2 || m.IRQ.HighestPending() != before {
					t.Errorf("quiet load at %04x (byte %v) read %04x then %04x, pending line %d then %d",
						a, byteWide, v1, v2, before, m.IRQ.HighestPending())
				} else if s.HoldsStill(a, byteWide) {
					still[l] = v1
				}
			}
		}
	}
	tar := s.LoadWord(0x0170)
	m.CPU.Cycles += 100 // still before every peripheral's next event
	for l, v := range still {
		if got := read(l); got != v {
			t.Errorf("still load at %04x (byte %v) read %04x, then %04x 100 cycles later", l.addr, l.byteWide, v, got)
		}
	}
	if s.LoadWord(0x0170) == tar {
		t.Error("TAR read the same value 100 cycles apart; the test no longer shows why it is not still")
	}
	if !s.QuietLoad(core.SimCtlAddr, false) || !s.HoldsStill(core.SimCtlAddr, false) {
		t.Error("reading the simulation-control register is not quiet or not still")
	}
	if a, b := s.LoadWord(periph.URXAddr), s.LoadWord(periph.URXAddr); a != 'x' || b != 'y' {
		t.Errorf("RX reads %q %q, want the queued bytes in order", a, b)
	}
}
