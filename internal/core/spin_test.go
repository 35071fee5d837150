package core_test

import (
	"testing"

	"eilid/internal/casu"
	"eilid/internal/core"
)

// spinCorners builds src and runs it through cornerPair in every
// defense column, with setup (when non-nil) applied right after boot,
// then hands each column's runs, production machine and symbols to
// check.
func spinCorners(t *testing.T, src string, setup func(*core.Machine), check func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, syms map[string]uint16)) {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.BuildOriginal("spin.s", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range core.Defenses() {
		blk, ref, m := cornerPair(t, p, spec, prog, setup)
		check(t, spec, blk, ref, m, prog.Symbols)
	}
}

// TestBlockSpinTimerCounter: a wait on the timer counter's top bit.
// TAR is a quiet load but moves every cycle, so it does not hold still
// and the loop never skips: it must leave on the cycle the reference
// sees the bit, halfway to the timer's wrap.
func TestBlockSpinTimerCounter(t *testing.T) {
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0xF000, &0x0172
    mov #1, &0x0160
wait:
    bit #0x8000, &0x0170
    jz wait
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, nil, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, _ map[string]uint16) {
		if !blk.res.Halted || blk.res.Cycles < 0x8000 {
			t.Errorf("%s: halted %v after %d cycles, want a halt once TAR reaches 0x8000", spec.Name, blk.res.Halted, blk.res.Cycles)
		}
		if blk.skipped != 0 {
			t.Errorf("%s: %d cycles of a TAR poll skipped", spec.Name, blk.skipped)
		}
	})
}

// TestBlockSpinRXRead: a loop reading URX after its bytes run out.
// Once the queue is empty its registers repeat, but each read pops the
// receive queue, a loud load, so the loop never skips.
func TestBlockSpinRXRead(t *testing.T) {
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
wait:
    mov &0x0072, r12
    cmp #0x21, r12
    jnz wait
    mov #0, &0x00FC
spin:
    jmp spin
.org 0xFFFE
.word reset
`, func(m *core.Machine) { m.UART.Feed([]byte("ab")) }, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, _ map[string]uint16) {
		if blk.res.Halted || blk.regs[12] != 0 {
			t.Errorf("%s: halted %v with r12=%#x, want the budget spent on an empty queue", spec.Name, blk.res.Halted, blk.regs[12])
		}
		if blk.skipped != 0 {
			t.Errorf("%s: %d cycles of an RX poll skipped", spec.Name, blk.skipped)
		}
	})
}

// TestBlockSpinStore: a status poll that also stores an unchanging
// value. The registers repeat, but a loop that stores never skips.
func TestBlockSpinStore(t *testing.T) {
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #7, r4
wait:
    mov r4, &0x0200
    bit #1, &0x0074
    jz wait
    mov #0, &0x00FC
.org 0xFFFE
.word reset
`, nil, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, _ map[string]uint16) {
		if blk.skipped != 0 {
			t.Errorf("%s: %d cycles of a storing loop skipped", spec.Name, blk.skipped)
		}
		if m.CPU.GuardedInsns < m.CPU.Insns/2 {
			t.Errorf("%s: %d of %d instructions in the guarded loop", spec.Name, m.CPU.GuardedInsns, m.CPU.Insns)
		}
	})
}

// TestBlockSpinRegisterChange: a status poll that counts its passes.
// A register changes on every iteration, so the loop never skips, and
// the count must equal the reference's.
func TestBlockSpinRegisterChange(t *testing.T) {
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
wait:
    inc r5
    bit #1, &0x0074
    jz wait
    mov #0, &0x00FC
.org 0xFFFE
.word reset
`, nil, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, _ map[string]uint16) {
		if blk.skipped != 0 || blk.regs[5] < 1000 {
			t.Errorf("%s: %d cycles skipped, r5=%d", spec.Name, blk.skipped, blk.regs[5])
		}
	})
}

// TestBlockSpinTimerIRQ: with GIE set, a loop polls a DMEM flag that
// only the timer ISR advances. The poll stores nothing, its registers
// repeat and plain RAM holds still, so it skips to the timer's wrap;
// each interrupt that ends a wait must be accepted on the reference's
// cycle.
func TestBlockSpinTimerIRQ(t *testing.T) {
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #0, &0x0200
    mov #5000, &0x0172
    mov #5, &0x0160
    eint
wait:
    cmp #3, &0x0200
    jnc wait
    dint
    mov #0, &0x00FC
spin:
    jmp spin
handler:
    add #1, &0x0200
    reti
.org 0xFFF0
.word handler
.org 0xFFFE
.word reset
`, nil, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, _ map[string]uint16) {
		if !blk.res.Halted || len(blk.irqCycles) != 3 {
			t.Errorf("%s: halted %v after %d interrupts, want 3", spec.Name, blk.res.Halted, len(blk.irqCycles))
		}
		if blk.skipped < 10000 {
			t.Errorf("%s: %d of %d cycles skipped, want most of three 5000-cycle waits", spec.Name, blk.skipped, blk.res.Cycles)
		}
	})
}

// TestBlockSpinSecureData: a loop in PMEM polling a secure-data word.
// eilid trips on the first read and must reset on the reference's
// cycle, having skipped nothing: it calls that read loud. The other
// columns ignore reads, so there the poll skips to the budget.
func TestBlockSpinSecureData(t *testing.T) {
	const secure = 0x0A80
	spinCorners(t, `
.org 0xE000
reset:
    mov #0x0A00, sp
wait:
    cmp #1, &0x0A80
    jnz wait
    mov #0, &0x00FC
.org 0xFFFE
.word reset
`, nil, func(t *testing.T, spec *core.DefenseSpec, blk, ref observed, m *core.Machine, syms map[string]uint16) {
		if spec != core.DefenseEILID {
			if blk.res.Resets != 0 || blk.skipped == 0 {
				t.Errorf("%s: %d resets, %d cycles skipped; want a skipped poll", spec.Name, blk.res.Resets, blk.skipped)
			}
			return
		}
		v := m.ResetReasons
		if len(v) != 1 || v[0].Kind != casu.ViolationSecureData || v[0].PC != syms["wait"] || v[0].Addr != secure {
			t.Errorf("eilid: reset reasons %v, want %s at 0x%04x", v, casu.ViolationSecureData, syms["wait"])
		}
		if blk.skipped != 0 {
			t.Errorf("eilid: %d cycles skipped", blk.skipped)
		}
		rom := m.Space.Layout.SecureROMStart
		if m.Monitor.QuietRead(syms["wait"], secure) || !m.Monitor.QuietRead(rom, secure) || !m.Monitor.QuietRead(syms["wait"], 0x0200) {
			t.Error("eilid must call only a secure-data read from outside the ROM loud")
		}
	})
}
