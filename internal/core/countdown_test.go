package core_test

import (
	"fmt"
	"strings"
	"testing"

	"eilid/internal/core"
	"eilid/internal/periph"
)

// countdownCounts are the loop counts the countdown corners load: a
// zero counter (65,536 iterations), the shortest loops, one that spans
// several timer periods and the longest nonzero count.
var countdownCounts = []uint16{0, 1, 2, 3, 1700, 0xFFFF}

// countdownSource is `mov #n, rX; loop: <step>; <jump> loop`, with setup
// before it and, after it, rX and SR stored to DMEM and the halt. The
// timer's ISR counts its calls in DMEM.
func countdownSource(setup []string, n uint16, rx int, step []string, jump string) string {
	return fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    %s
    mov #%d, r%d
loop:
    %s
    %s loop
    mov r%d, &0x0200
    mov sr, &0x0202
    mov #0, &0x00FC
spin:
    jmp spin
isr:
    add #1, &0x0204
    reti
.org 0xFFF0
.word isr
.org 0xFFFE
.word reset
`, strings.Join(setup, "\n    "), n, rx, strings.Join(step, "\n    "), jump, rx)
}

// timerSetup starts the timer with the given period, its interrupt
// enabled and GIE set when irq is true.
func timerSetup(period uint16, irq bool) []string {
	ctl := periph.TimerModeUp
	if irq {
		ctl |= periph.TimerIE
	}
	s := []string{fmt.Sprintf("mov #%d, &0x0172", period), fmt.Sprintf("mov #%d, &0x0160", ctl)}
	if irq {
		s = append(s, "eint")
	}
	return s
}

// countdownCorner builds src and runs it with the given budget on the
// production path and on the reference in every defense column,
// comparing them through compareAdmitted and all 64 KiB of RAM. Each
// column runs twice: from reset, where the block that loads the
// counter also runs the first iteration, and stepped to the loop's head
// first, so that the budget counts from there and the countdown block
// is entered with the counter as loaded (zero included). It returns the
// production machines and the symbols.
func countdownCorner(t *testing.T, p *core.Pipeline, what, src string, budget uint64) ([]*core.Machine, map[string]uint16) {
	t.Helper()
	prog, err := p.BuildOriginal("countdown.s", src)
	if err != nil {
		t.Fatal(err)
	}
	var ms []*core.Machine
	for _, spec := range core.Defenses() {
		for _, head := range []bool{false, true} {
			name := fmt.Sprintf("%s %s (from the head: %v)", what, spec.Name, head)
			var poke func(*core.Machine)
			if head {
				poke = func(*core.Machine) {}
			}
			at := prog.Symbols["loop"]
			prod, m := cornerRun(t, p, spec, prog, true, at, poke, budget)
			ref, r := cornerRun(t, p, spec, prog, false, at, poke, budget)
			compareAdmitted(t, name, prod, ref, filterOf(m))
			compareRAM(t, name, m, r)
			ms = append(ms, m)
		}
	}
	if t.Failed() {
		t.Fatal(src)
	}
	return ms, prog.Symbols
}

// TestBlockCountdownDifferential: `dec rX; jnz` self-loops retire all
// but their last iteration in closed form on the pure path, while the
// reference steps every iteration. Each counter runs alone, with the
// timer's deadline at every offset of one iteration, with timer
// interrupts that cut into the loop and return to it, and with a cycle
// budget that ends at every offset, in every defense column; near-miss
// shapes must keep the plain loop and match too.
func TestBlockCountdownDifferential(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dec := func(rx int) []string { return []string{fmt.Sprintf("dec r%d", rx)} }
	// Each counter gets its own register, R4 and R15 included.
	regs := []int{4, 9, 15, 10, 5, 12}

	// checkCountdown asserts that the loop is a countdown block.
	checkCountdown := func(t *testing.T, ms []*core.Machine, syms map[string]uint16) {
		t.Helper()
		if b := ms[0].CPU.Predecoded().Blocks().At(syms["loop"]); b == nil || !b.Countdown {
			t.Fatalf("the loop at 0x%04x is not a countdown block", syms["loop"])
		}
	}

	// With nothing to cut it, the whole loop retires on the pure path
	// in every column, and runs out.
	t.Run("alone", func(t *testing.T) {
		for i, n := range countdownCounts {
			ms, syms := countdownCorner(t, p, fmt.Sprintf("n=%d", n), countdownSource(nil, n, regs[i], dec(regs[i]), "jnz"), cornerBudget)
			checkCountdown(t, ms, syms)
			iters := uint64(n)
			if n == 0 {
				iters = 1 << 16
			}
			for j, m := range ms {
				name := fmt.Sprintf("n=%d %s run %d", n, core.Defenses()[j/2].Name, j%2)
				if c := m.Space.ReadRaw(0x0200, 2); !m.Halted() || c[0]|c[1] != 0 {
					t.Errorf("%s: halted %v, counter bytes %v; want the loop run out", name, m.Halted(), c)
				}
				if m.CPU.PureInsns < 2*iters {
					t.Errorf("%s: %d instructions on the pure path, want the loop's %d", name, m.CPU.PureInsns, 2*iters)
				}
			}
		}
	})

	// Three consecutive periods put the first deadline at every offset
	// of an iteration; a period prime to 3 moves every later one along.
	// The short periods cut the loops up to 1700 iterations long. The
	// budget lets those run out and stops the two longest loops after
	// dozens of deadlines.
	periods := func(n uint16, short, long uint16) []uint16 {
		ps := []uint16{long, long + 1, long + 2}
		if n != 0 && n <= 1700 {
			ps = append(ps, short, short+1, short+2)
		}
		return ps
	}
	t.Run("deadline", func(t *testing.T) {
		for i, n := range countdownCounts {
			for _, period := range periods(n, 4, 1000) {
				what := fmt.Sprintf("n=%d period %d", n, period)
				ms, syms := countdownCorner(t, p, what, countdownSource(timerSetup(period, false), n, regs[i], dec(regs[i]), "jnz"), 30_000)
				checkCountdown(t, ms, syms)
			}
		}
	})

	t.Run("interrupt", func(t *testing.T) {
		for i, n := range countdownCounts {
			for _, period := range periods(n, 40, 500) {
				what := fmt.Sprintf("n=%d period %d", n, period)
				ms, syms := countdownCorner(t, p, what, countdownSource(timerSetup(period, true), n, regs[i], dec(regs[i]), "jnz"), 30_000)
				checkCountdown(t, ms, syms)
				if n >= 1700 && ms[0].Space.ReadRaw(0x0204, 1)[0] == 0 {
					t.Errorf("%s: no interrupt cut into the loop", what)
				}
			}
		}
	})

	// Budgets from 1 end at every cycle of the first iterations, and of
	// the whole of the short loops (counted from the loop's head on the
	// runs that step there); the others end at every offset a thousand
	// iterations into the long ones.
	budgets := func(n uint16) []uint64 {
		var bs []uint64
		last := uint64(6)
		if n != 0 && n <= 3 {
			last = 24
		}
		for b := uint64(1); b <= last; b++ {
			bs = append(bs, b)
		}
		if n == 0 || n >= 1700 {
			bs = append(bs, 3000, 3001, 3002)
		}
		return bs
	}
	t.Run("budget", func(t *testing.T) {
		for i, n := range countdownCounts {
			for _, budget := range budgets(n) {
				countdownCorner(t, p, fmt.Sprintf("n=%d budget %d", n, budget), countdownSource(nil, n, regs[i], dec(regs[i]), "jnz"), budget)
			}
		}
	})

	// Shapes one step away from a countdown keep the plain loop: no
	// block of theirs is a countdown, and each still matches within a
	// budget that the looping ones run out.
	t.Run("near-miss", func(t *testing.T) {
		shapes := []struct {
			name  string
			step  func(rx int) []string
			jump  string
			setup []string
		}{
			{"decd", func(rx int) []string { return []string{fmt.Sprintf("decd r%d", rx)} }, "jnz", nil},
			{"jeq", dec, "jeq", nil},
			{"dec.b", func(rx int) []string { return []string{fmt.Sprintf("dec.b r%d", rx)} }, "jnz", nil},
			{"sub r14", func(rx int) []string { return []string{fmt.Sprintf("sub r14, r%d", rx)} }, "jnz", []string{"mov #1, r14"}},
			{"nop", func(rx int) []string { return append([]string{"nop"}, dec(rx)...) }, "jnz", nil},
		}
		for _, s := range shapes {
			for i, n := range countdownCounts {
				src := countdownSource(s.setup, n, regs[i], s.step(regs[i]), s.jump)
				ms, syms := countdownCorner(t, p, fmt.Sprintf("%s n=%d", s.name, n), src, 20_000)
				blocks := ms[0].CPU.Predecoded().Blocks()
				for a := syms["reset"]; a < syms["isr"]; a += 2 {
					if b := blocks.At(a); b != nil && b.Countdown {
						t.Errorf("%s: the block at 0x%04x is a countdown", s.name, a)
					}
				}
			}
		}
	})
}
