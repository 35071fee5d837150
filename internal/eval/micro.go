package eval

import (
	"errors"
	"fmt"
	"io"

	"eilid/internal/core"
)

// MicroOverhead reproduces the §VI micro measurements: the cost of one
// store operation (resolve + NS gateway + secure dispatch + shadow-stack
// write + return) and one check operation, in instructions, cycles and
// microseconds.
type MicroOverhead struct {
	StoreInsns, CheckInsns   uint64
	StoreCycles, CheckCycles uint64
}

// StoreMicros is the store-path time at ClockMHz.
func (m MicroOverhead) StoreMicros() float64 { return CyclesToMicros(m.StoreCycles) }

// CheckMicros is the check-path time at ClockMHz.
func (m MicroOverhead) CheckMicros() float64 { return CyclesToMicros(m.CheckCycles) }

// PerCallMicros is the combined per-protected-call cost (the paper's
// ≈25.2 µs figure at its clocking).
func (m MicroOverhead) PerCallMicros() float64 { return m.StoreMicros() + m.CheckMicros() }

// microDriver performs exactly one store_ra and one check_ra through the
// gateway, with marker labels bracketing each path.
const microDriverTemplate = `
.org 0xE000
reset:
    mov #0x0A00, sp
    call #NS_EILID_init
m_store_begin:
    mov #0x1234, r6
    call #NS_EILID_store_ra
m_store_end:
    mov #0x1234, r6
    call #NS_EILID_check_ra
m_check_end:
    mov #0, &0x00FC
spin:
    jmp spin
%s
.org 0xFFFE
.word reset
`

// MeasureMicro runs the driver on a protected machine and counts the
// instructions and cycles between the markers.
func MeasureMicro(p *core.Pipeline) (MicroOverhead, error) {
	ins := core.NewInstrumenter(p.Config(), p.ROM())
	src := fmt.Sprintf(microDriverTemplate, ins.GatewaySource())
	prog, err := p.BuildOriginal("micro.s", src)
	if err != nil {
		return MicroOverhead{}, err
	}
	m, err := core.NewMachine(core.MachineOptions{
		Config: p.Config(), ROM: p.ROM(), Defense: core.DefenseEILID,
	})
	if err != nil {
		return MicroOverhead{}, err
	}
	if err := m.LoadFirmware(prog.Image); err != nil {
		return MicroOverhead{}, err
	}
	m.Boot()

	var mo MicroOverhead
	runTo := func(target uint16) (insns, cycles uint64, err error) {
		res, err := m.RunTo(target, 100_000)
		switch {
		case errors.Is(err, core.ErrCycleBudget):
			return 0, 0, fmt.Errorf("eval: micro driver never reached 0x%04x", target)
		case err != nil:
			return 0, 0, err
		case res.Resets > 0:
			return 0, 0, fmt.Errorf("eval: micro driver reset: %v", m.ResetReasons)
		}
		return res.Insns, res.Cycles, nil
	}

	if _, _, err := runTo(prog.Symbols["m_store_begin"]); err != nil {
		return mo, err
	}
	if mo.StoreInsns, mo.StoreCycles, err = runTo(prog.Symbols["m_store_end"]); err != nil {
		return mo, err
	}
	if mo.CheckInsns, mo.CheckCycles, err = runTo(prog.Symbols["m_check_end"]); err != nil {
		return mo, err
	}
	return mo, nil
}

// Render writes the micro table with the paper's reference values.
func (m MicroOverhead) Render(w io.Writer) {
	fmt.Fprintln(w, "Section VI micro-overhead: one protected call/return pair")
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "path", "instructions", "cycles", "us@100MHz")
	fmt.Fprintf(w, "%-28s %12d %12d %12.3f\n", "store (resolve+shadow push)", m.StoreInsns, m.StoreCycles, m.StoreMicros())
	fmt.Fprintf(w, "%-28s %12d %12d %12.3f\n", "check (verify+shadow pop)", m.CheckInsns, m.CheckCycles, m.CheckMicros())
	fmt.Fprintf(w, "%-28s %12d %12d %12.3f\n", "per protected call (sum)",
		m.StoreInsns+m.CheckInsns, m.StoreCycles+m.CheckCycles, m.PerCallMicros())
	fmt.Fprintln(w, "paper reference: 26 store / 29 check instructions; 11.8 / 13.4 us (25.2 us per call) at its clocking")
}
