package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eilid/internal/asm"
	"eilid/internal/attacks"
	"eilid/internal/core"
)

// runToState is what a machine stopped at a break leaves for the next
// phase of its run: registers, the cycle, instruction and interrupt
// counters, resets and their reasons, the halt latch, the clocked
// peripherals and bus errors. RAM is compared apart (compareRAM).
type runToState struct {
	regs                      [16]uint16
	cycles, insns, interrupts uint64
	resets                    int
	reasons                   string
	halted                    bool
	exit                      uint16
	periph                    string
	busErrors                 int
}

func stateOf(m *core.Machine) runToState {
	s := runToState{
		regs: m.CPU.R, cycles: m.CPU.Cycles, insns: m.CPU.Insns, interrupts: m.CPU.Interrupts,
		resets: m.ResetCount, halted: m.Halted(), exit: m.ExitCode(), periph: periphState(m),
		busErrors: m.Space.BusErrors,
	}
	for _, v := range m.ResetReasons {
		s.reasons += v.Error() + ";"
	}
	return s
}

// stepTo is the loop Machine.RunTo replaced in attacks.ExecuteOn, kept
// as its reference: Machine.Step until the PC is at addr or the device
// resets.
func stepTo(t *testing.T, m *core.Machine, addr uint16, maxSteps int) {
	t.Helper()
	r0 := m.ResetCount
	for steps := 0; m.CPU.PC() != addr; steps++ {
		if steps > maxSteps {
			t.Fatalf("never reached 0x%04x", addr)
		}
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if m.ResetCount != r0 {
			return
		}
	}
}

// compareStopped asserts that m stopped in the state and with the RAM
// of want, the reference.
func compareStopped(t *testing.T, what string, m, want *core.Machine) {
	t.Helper()
	if got, ref := stateOf(m), stateOf(want); got != ref {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, ref)
	}
	compareRAM(t, what, m, want)
}

// runToProgram holds the corner breaks of TestRunToMatchesStep. The
// blocks that hold each break are entered by a jump, so RunBlocks meets
// each at a block entry: cd_jnz is the jnz of a countdown block (dec
// r5; jnz cd), mid a label reached by fall-through inside one fused
// block, self the entry of a pure self-loop, after a label two
// instructions past the halt store. The final spin never ends.
const runToProgram = `
.org 0xE000
reset:
    mov #0x0A00, sp
    mov #40, r5
    jmp cd
cd:
    dec r5
cd_jnz:
    jnz cd
    jmp run
run:
    mov #1, r4
    add #2, r4
mid:
    add #3, r4
    mov r4, &0x0200
    mov #0, r7
    jmp self
self:
    add #1, r7
    cmp #200, r7
    jne self
    mov #0, &0x00FC
    add #5, r4
after:
    mov r4, &0x0202
spin:
    jmp spin
dead:
    mov #1, &0x0204
    jmp dead
.org 0xFFFE
.word reset
`

// runToISR idles in a pure self-loop with the timer's interrupt enabled:
// its ISR is reached only through interrupt service.
var runToISR = fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    %s
idle:
    add #1, r4
    jmp idle
isr:
    add #1, &0x0204
    reti
.org 0xFFF0
.word isr
.org 0xFFFE
.word reset
`, strings.Join(timerSetup(97, true), "\n    "))

// runToBudget bounds the corner runs, in cycles and in reference steps.
const runToBudget = 50_000

// bootCorner loads prog on a fresh machine of the given defense (with
// the secure ROM where the defense needs it), on the production path or
// as the reference, and boots it.
func bootCorner(t *testing.T, p *core.Pipeline, spec *core.DefenseSpec, prog *asm.Program, production bool) *core.Machine {
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
	m.Boot()
	return m
}

// bootAttack builds a machine for tg on the production path or as the
// reference and boots it with sc's payload, as attacks.ExecuteOn does
// before the poke.
func bootAttack(t *testing.T, tg attacks.Target, sc attacks.Scenario, production bool) *core.Machine {
	t.Helper()
	m, err := tg.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if !production {
		reference(m)
	}
	if sc.Payload != nil {
		m.UART.Feed(sc.Payload(tg.Symbols))
	}
	m.Boot()
	return m
}

// wantStepShare pins, per defense column (baseline, eilid, shadow,
// critvar), the instructions Step retired over the six handcrafted
// attacks run through attacks.ExecuteOn on the production path, of all
// they ran. With a Step loop to the poke point, baseline read 258 of
// 459.
var wantStepShare = [4]string{"7 of 459", "5 of 1425", "7 of 454", "6 of 454"}

// TestRunToMatchesStep: Machine.RunTo stops where the Step loop it
// replaced stops, on the production path (blocks, batched ticks, spin
// skips and countdowns up to the break) and on the reference.
//
//   - attacks: every poke scenario of attackSuite, in every defense
//     column, run to its poke point by RunTo and by stepTo, on
//     production and on the reference;
//   - corners: breaks where a block would run past them (see
//     runToProgram) and an ISR entry reached only through interrupt
//     service, RunTo on production and on the reference against
//     stepTo on the reference;
//   - never-reached: a dead label and an address inside an instruction
//     exhaust the budget, and the break does not outlive the call;
//   - step-share: the instructions Step retires on the handcrafted
//     attacks, so that the test cannot pass with the block path unused.
func TestRunToMatchesStep(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defenses := core.Defenses()
	if len(defenses) != 4 {
		t.Fatalf("%d defense columns; wantStepShare pins 4", len(defenses))
	}

	t.Run("attacks", func(t *testing.T) {
		pokes := 0
		for _, a := range attackSuite(t, p) {
			if a.sc.PokeAt == "" {
				continue
			}
			pokes++
			for _, spec := range defenses {
				tg := attacks.TargetFor(p, a.build, spec)
				addr, ok := tg.Symbols[a.sc.PokeAt]
				if !ok {
					t.Fatalf("%s: no symbol %s", a.sc.Name, a.sc.PokeAt)
				}
				for _, production := range []bool{true, false} {
					what := fmt.Sprintf("%s %s (production %v)", a.sc.Name, spec.Name, production)
					stepped := bootAttack(t, tg, a.sc, production)
					stepTo(t, stepped, addr, 5_000_000)
					m := bootAttack(t, tg, a.sc, production)
					res, err := m.RunTo(addr, 5_000_000)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if res.Resets == 0 && m.CPU.PC() != addr {
						t.Errorf("%s: stopped at 0x%04x, not at the poke point 0x%04x", what, m.CPU.PC(), addr)
					}
					compareStopped(t, what, m, stepped)
				}
			}
		}
		if pokes != 11 {
			t.Errorf("%d poke scenarios, want 11 (3 handcrafted, 8 generated)", pokes)
		}
	})

	t.Run("corners", func(t *testing.T) {
		prog, err := p.BuildOriginal("runto.s", runToProgram)
		if err != nil {
			t.Fatal(err)
		}
		isr, err := p.BuildOriginal("runto-isr.s", runToISR)
		if err != nil {
			t.Fatal(err)
		}
		corners := []struct {
			prog  *asm.Program
			label string
		}{{prog, "mid"}, {prog, "self"}, {prog, "cd_jnz"}, {prog, "after"}, {isr, "isr"}}
		for _, c := range corners {
			addr := c.prog.Symbols[c.label]
			for _, spec := range defenses {
				what := c.label + " " + spec.Name
				ref := bootCorner(t, p, spec, c.prog, false)
				stepTo(t, ref, addr, runToBudget)
				if ref.ResetCount != 0 || ref.CPU.PC() != addr {
					t.Fatalf("%s: the reference stopped at 0x%04x after %d resets", what, ref.CPU.PC(), ref.ResetCount)
				}
				for _, production := range []bool{true, false} {
					m := bootCorner(t, p, spec, c.prog, production)
					if _, err := m.RunTo(addr, runToBudget); err != nil {
						t.Fatalf("%s (production %v): %v", what, production, err)
					}
					compareStopped(t, fmt.Sprintf("%s (production %v)", what, production), m, ref)
					if production && m.CPU.PureInsns == 0 {
						t.Errorf("%s: no block ran before the break", what)
					}
				}
				if c.label == "after" && !ref.Halted() {
					t.Errorf("%s: the break after the halt store was reached without a halt", what)
				}
				if c.label == "isr" && ref.CPU.Interrupts != 1 {
					t.Errorf("%s: %d interrupts before the ISR entry, want 1", what, ref.CPU.Interrupts)
				}
			}
		}
	})

	t.Run("never-reached", func(t *testing.T) {
		prog, err := p.BuildOriginal("runto.s", runToProgram)
		if err != nil {
			t.Fatal(err)
		}
		// mid+2 is the extension word of `add #3, r4`: no instruction
		// starts there, so the PC never equals it, and RunBlocks enters
		// no block that spans it.
		for _, brk := range []uint16{prog.Symbols["dead"], prog.Symbols["mid"] + 2} {
			for _, spec := range defenses {
				what := fmt.Sprintf("0x%04x %s", brk, spec.Name)
				ms := [2]*core.Machine{}
				for i, production := range []bool{true, false} {
					m := bootCorner(t, p, spec, prog, production)
					if _, err := m.RunTo(brk, runToBudget); !errors.Is(err, core.ErrCycleBudget) {
						t.Fatalf("%s (production %v): RunTo returned %v, want ErrCycleBudget", what, production, err)
					}
					ms[i] = m
				}
				compareStopped(t, what, ms[0], ms[1])
			}
		}
		// The break holds for one call only. Under RunTo the self-loop's
		// add, whose block spans the break, runs in Step (250 times, with
		// the mov before it), and only the jmp's own block runs as one;
		// the Run that follows chains the loop's block in place and
		// steps once, at its budget's end.
		loop, err := p.BuildOriginal("runto-loop.s", `
.org 0xE000
reset:
    mov #0x0A00, sp
loop:
    add #3, r4
    jmp loop
.org 0xFFFE
.word reset
`)
		if err != nil {
			t.Fatal(err)
		}
		m := bootCorner(t, p, core.DefenseBaseline, loop, true)
		c := m.CPU
		if _, err := m.RunTo(loop.Symbols["loop"]+2, 1000); !errors.Is(err, core.ErrCycleBudget) {
			t.Fatalf("RunTo returned %v, want ErrCycleBudget", err)
		}
		if got := fmt.Sprintf("%d of %d", c.Insns-c.PureInsns, c.Insns); got != "251 of 500" {
			t.Errorf("RunTo stepped %s instructions, want 251 of 500", got)
		}
		pure, insns := c.PureInsns, c.Insns
		if _, err := m.Run(1000); !errors.Is(err, core.ErrCycleBudget) {
			t.Fatalf("Run returned %v, want ErrCycleBudget", err)
		}
		if got := fmt.Sprintf("%d of %d", c.Insns-insns-(c.PureInsns-pure), c.Insns-insns); got != "1 of 500" {
			t.Errorf("the Run after RunTo stepped %s instructions, want 1 of 500", got)
		}
	})

	t.Run("step-share", func(t *testing.T) {
		var builds []*core.BuildResult
		for _, sc := range attacks.Scenarios() {
			build, err := p.Build(sc.Name+".s", sc.Source)
			if err != nil {
				t.Fatal(err)
			}
			builds = append(builds, build)
		}
		for col, spec := range defenses {
			var stepped, insns uint64
			for i, sc := range attacks.Scenarios() {
				tg := attacks.TargetFor(p, builds[i], spec)
				m, err := tg.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := attacks.ExecuteOn(m, tg, sc); err != nil {
					t.Fatal(err)
				}
				c := m.CPU
				stepped += c.Insns - c.PureInsns - c.GuardedInsns - c.SkippedInsns
				insns += c.Insns
			}
			if got := fmt.Sprintf("%d of %d", stepped, insns); got != wantStepShare[col] {
				t.Errorf("%s: Step retired %s instructions, want %s", spec.Name, got, wantStepShare[col])
			}
		}
	})
}
