package attacks

import (
	"sync"
	"testing"

	"eilid/internal/core"
)

// fuzzTarget lazily builds the protected overflow-victim target once
// per process: the build (assemble, instrument, predecode) is the
// expensive part; each fuzz execution then pays only a machine
// construction.
var fuzzTarget = struct {
	once sync.Once
	t    Target
	err  error
}{}

func protectedOverflowTarget() (Target, error) {
	fuzzTarget.once.Do(func() {
		p, err := core.NewPipeline(core.DefaultConfig())
		if err != nil {
			fuzzTarget.err = err
			return
		}
		build, err := p.Build("fuzz-overflow.s", OverflowVictimSource(4))
		if err != nil {
			fuzzTarget.err = err
			return
		}
		prot := TargetFor(p, build, core.DefenseEILID)
		m, err := prot.NewMachine()
		if err != nil {
			fuzzTarget.err = err
			return
		}
		prot.Predecoded = m.EnablePredecode()
		fuzzTarget.t = prot
	})
	return fuzzTarget.t, fuzzTarget.err
}

// FuzzUARTPayload is EILID's guarantee stated as a fuzz property: no
// UART input whatsoever — not just the handcrafted exemplars — may
// execute attacker code on the protected device running the classic
// unchecked-length overflow victim. Any reset the input does provoke is
// fine (that is the defence working); the one losing outcome is the
// compromise exit code. The committed seed corpus
// (testdata/fuzz/FuzzUARTPayload) starts the search at the canonical
// stack-smash/ROP shapes, a deep overflow and a truncated input.
func FuzzUARTPayload(f *testing.F) {
	seeds := [][]byte{
		nil,
		{2, 'h', 'i'},
		{6, 'A', 'B', 'C', 'D', 0x40, 0xE0},
		{8, 'A', 'B', 'C', 'D', 0x3A, 0xE0, 0x40, 0xE0},
		append([]byte{250}, make([]byte, 250)...),
		{200, 1, 2, 3},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		target, err := protectedOverflowTarget()
		if err != nil {
			t.Fatal(err)
		}
		sc := Scenario{
			Name:    "fuzz-uart",
			Payload: func(map[string]uint16) []byte { return data },
			// Small budget: an input that wedges the victim polling an
			// empty UART is a boring outcome, not a finding.
			Budget: 150_000,
		}
		m, err := target.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		o, err := ExecuteOn(m, target, sc)
		if err != nil {
			t.Fatalf("harness failure: %v", err)
		}
		if o.Compromised {
			t.Fatalf("protected device compromised by % x (resets=%d reason=%q)", data, o.Resets, o.Reason)
		}
	})
}
