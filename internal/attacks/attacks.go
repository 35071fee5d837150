// Package attacks implements the run-time control-flow attack suite used
// to validate EILID's three security properties (P1 return-address
// integrity, P2 return-from-interrupt integrity, P3 indirect-call
// integrity) plus the CASU-layer protections (W⊕X, shadow-stack
// exclusivity). Each scenario runs against the unprotected baseline
// device, where it must succeed (demonstrating the threat is real), and
// against the EILID-protected device, where the hardware must reset
// before any attacker code executes. The fleet runner (internal/fleet)
// schedules those runs and judges them; this package supplies the
// scenarios, the per-defense Target and the one run sequence, ExecuteOn.
//
// The adversary model is the paper's: full knowledge of the binary (the
// payloads are computed from the symbol table of the build under attack)
// and the ability to corrupt arbitrary data memory at run time (either
// through an in-firmware memory-safety bug or, where the paper's generic
// "memory vulnerability" is abstracted, a harness-injected write).
package attacks

import (
	"errors"
	"fmt"

	"eilid/internal/asm"
	"eilid/internal/core"
	"eilid/internal/isa"
)

// CompromiseCode is the simulation-control exit code attacker payloads
// write: seeing it means the adversary executed code of their choosing.
const CompromiseCode = 0x66

// Scenario is one attack.
type Scenario struct {
	Name string
	// Property is the EILID security property under test (P1/P2/P3) or
	// the CASU-layer rule (W^X, SecureData).
	Property string
	// Description explains the attack in one paragraph.
	Description string
	// Source is the victim firmware.
	Source string
	// Payload builds the attacker's UART input from the symbol table of
	// the build under attack (nil when the scenario uses Poke).
	Payload func(syms map[string]uint16) []byte
	// PokeAt names the symbol at which the harness performs the
	// adversary's arbitrary memory write; empty when unused. ExecuteOn
	// runs the victim to it with core.Machine.RunTo, so the write lands
	// the first time the PC reaches the symbol at an instruction
	// boundary, on the cycle a single-step loop would reach it.
	PokeAt string
	// Poke performs that write.
	Poke func(m *core.Machine, syms map[string]uint16)
	// Resident marks scenarios whose adversary action is baked into the
	// firmware itself (modelling an attacker-reached code path) rather
	// than delivered via Payload or Poke.
	Resident bool
	// WantReason is the expected reset-cause substring on the protected
	// device (e.g. "cfi-check-failed", "exec-from-nonexec").
	WantReason string
	// Budget overrides the suite's per-run cycle budget when non-zero.
	// Generated scenarios (internal/scenario) use small budgets so a
	// fuzzed input that wedges the victim in a polling loop stays cheap
	// at fleet scale.
	Budget uint64
	// RunThroughResets keeps the protected device running through
	// monitor resets (Machine.Run instead of Machine.RunUntilReset)
	// until halt or budget exhaustion, making reset storms observable
	// as an Outcome.Resets count instead of stopping at the first one.
	RunThroughResets bool
}

// Outcome describes one machine's fate under a scenario.
type Outcome struct {
	Compromised bool   // attacker code ran (exit code CompromiseCode)
	Halted      bool   // firmware reached a halt
	ExitCode    uint16 // final simulation-control value
	Resets      int    // hardware resets observed
	Reason      string // first reset cause, if any
	// ReasonsRecorded is how many per-reset violation records the
	// machine retained; under a reset storm it saturates at
	// core.MaxResetReasons while Resets keeps the true total.
	ReasonsRecorded int
	Cycles          uint64 // total MCLK cycles since power-on
	Insns           uint64 // instructions executed since power-on
	UART            string // transmit transcript
}

// budget bounds every attack run.
const budget = 5_000_000

// Target is one prebuilt device variant a scenario executes against:
// the build artifacts are produced once (assembly, instrumentation,
// decode cache) and then shared by every run, which is what lets the
// fleet runner replay the same scenario on many machines concurrently.
type Target struct {
	Config  core.Config
	ROM     *core.SecureROM // required for instrumented defenses
	Image   *asm.Image
	Symbols map[string]uint16
	// Defense selects the monitor variant; nil means
	// core.DefenseBaseline.
	Defense *core.DefenseSpec
	// Predecoded optionally shares a decode cache, decodes and blocks in
	// one table, built from this exact Image (and ROM, for instrumented
	// defenses), by Predecode or by core.Machine.EnablePredecode on a
	// machine loaded with them; nil makes each machine snapshot a
	// private one.
	Predecoded *isa.Predecoded
}

// TargetFor derives the target for one defense from a build: an
// instrumented defense attacks the EILIDinst build (with its shifted
// layout and trampolines), everything else the original build.
func TargetFor(p *core.Pipeline, build *core.BuildResult, spec *core.DefenseSpec) Target {
	if spec == nil {
		spec = core.DefenseBaseline
	}
	t := Target{
		Config:  p.Config(),
		Image:   build.Original.Image,
		Symbols: build.Original.Symbols,
		Defense: spec,
	}
	if spec.Instrumented {
		t.ROM = p.ROM()
		t.Image = build.Instrumented.Image
		t.Symbols = build.Instrumented.Symbols
	}
	return t
}

// NewMachine constructs a fresh device for this target: variant
// options applied, image loaded, the target's shared decode cache
// installed, or a private one when it carries none. Installing settles
// the machine's memory (see core.Machine.UsePredecoded), so the image
// load leaves no page marked and the cache starts fresh. The fleet's
// machine pool builds every pooled machine through this helper, seals
// it with core.Machine.Snapshot and recycles it between jobs.
func (t Target) NewMachine() (*core.Machine, error) {
	opts := core.MachineOptions{Config: t.Config, ROM: t.ROM, Defense: t.Defense}
	m, err := core.NewMachine(opts)
	if err != nil {
		return nil, err
	}
	if err := t.Image.WriteTo(m.Space); err != nil {
		return nil, err
	}
	if t.Predecoded != nil {
		m.UsePredecoded(t.Predecoded)
	} else {
		m.EnablePredecode()
	}
	return m, nil
}

// Predecode returns the decode cache NewMachine would snapshot for this
// target when it carries none, built straight from the target's images
// (core.PredecodeImages) with no machine: the EILIDsw ROM image, which
// NewMachine loads for an instrumented defense, then the target's own.
func (t Target) Predecode() *isa.Predecoded {
	if t.Defense != nil && t.Defense.Instrumented && t.ROM != nil {
		return core.PredecodeImages(t.Config.Layout, t.ROM.Program.Image, t.Image)
	}
	return core.PredecodeImages(t.Config.Layout, t.Image)
}

// ExecuteOn runs the scenario on a prepared machine — fresh from
// Target.NewMachine, or recycled by the fleet's machine pool — which
// must carry the target's image (and decode cache, when shared).
//
// A poke scenario first runs the victim to its PokeAt symbol
// (core.Machine.RunTo) within budget cycles; one that never gets there
// is an error, and a device reset before it ends the run unpoked. Then
// the write lands and the run goes on under the scenario's budget.
func ExecuteOn(m *core.Machine, t Target, sc Scenario) (Outcome, error) {
	syms := t.Symbols
	monitored := m.Monitor != nil
	if sc.Payload != nil {
		m.UART.Feed(sc.Payload(syms))
	}
	m.Boot()

	if sc.PokeAt != "" {
		addr, ok := syms[sc.PokeAt]
		if !ok {
			return Outcome{}, fmt.Errorf("symbol %q not found", sc.PokeAt)
		}
		res, err := m.RunTo(addr, budget)
		if errors.Is(err, core.ErrCycleBudget) {
			return Outcome{}, fmt.Errorf("never reached %s (0x%04x)", sc.PokeAt, addr)
		}
		if err != nil {
			return Outcome{}, err
		}
		if res.Resets > 0 {
			// Device reset before the poke point (shouldn't happen on
			// a benign path); report as-is.
			return outcomeOf(m), nil
		}
		sc.Poke(m, syms)
	}

	// Run errors (cycle-budget exhaustion, or a baseline device crashing
	// outright on wild control flow — e.g. executing data that does not
	// decode) are outcomes, not harness failures: a crash is not a
	// compromise, but not a defended result either. Record what we know.
	limit := sc.Budget
	if limit == 0 {
		limit = budget
	}
	if monitored && !sc.RunThroughResets {
		_, _ = m.RunUntilReset(limit)
	} else {
		_, _ = m.Run(limit)
	}
	return outcomeOf(m), nil
}

// outcomeOf reads the machine's fate off its power-on observables.
func outcomeOf(m *core.Machine) Outcome {
	o := Outcome{
		Halted:   m.Halted(),
		ExitCode: m.ExitCode(),
		Resets:   m.ResetCount,
		Cycles:   m.CPU.Cycles,
		Insns:    m.CPU.Insns,
		UART:     m.UART.Transcript(),
	}
	o.Compromised = o.Halted && o.ExitCode == CompromiseCode
	o.ReasonsRecorded = len(m.ResetReasons)
	if len(m.ResetReasons) > 0 {
		o.Reason = m.ResetReasons[0].Kind.String()
	}
	return o
}
