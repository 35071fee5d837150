package cpu

import (
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// predecoded installs a decode cache over the fetchable upper memory of
// the test space, mirroring how core.Machine.EnablePredecode wires it.
func predecoded(c *CPU, s *mem.Space) *isa.Predecoded {
	p := isa.Predecode(s.PeekWord, 0xE000, 0xFFFF, nil)
	c.SetPredecoded(p)
	return p
}

// TestInvalidateCodeBelowCacheIsFree pins the reset-path fix: writes
// that land entirely below the cached window (every ordinary DMEM
// store, and the DMEM + secure-data sweep a device reset performs) must
// not allocate or touch the dirty bitmap, while writes reaching the
// window still stale it.
func TestInvalidateCodeBelowCacheIsFree(t *testing.T) {
	c, s := program(t, isa.Instruction{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(4)})
	predecoded(c, s)

	// The whole volatile sweep of a device reset: DMEM + secure data.
	c.InvalidateCode(0x0200, 0x0800)
	c.InvalidateCode(0x0A00, 0x0100)
	if c.dirty != nil {
		t.Fatal("below-cache invalidation allocated the dirty bitmap")
	}
	if c.invGen != 0 {
		t.Fatalf("below-cache invalidation bumped invGen to %d", c.invGen)
	}

	// A write whose affected fetch windows reach the cache start must
	// still stale the first cached entry.
	c.InvalidateCode(0xDFFE, 4)
	if !c.staleAt(0xE000) {
		t.Fatal("boundary write did not stale the first cached entry")
	}
	if c.invGen == 0 {
		t.Fatal("boundary write did not bump invGen")
	}
}

// TestResetCodeStateDiscardsStaleness pins the recycle primitive: after
// ResetCodeState the cache is trusted again (the caller restored the
// exact image it was built from), the generation advanced, and the
// installed cache and block table remain in place.
func TestResetCodeStateDiscardsStaleness(t *testing.T) {
	c, s := program(t, isa.Instruction{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(4)})
	p := predecoded(c, s)
	c.InvalidateCode(0xE000, 2)
	if !c.staleAt(0xE000) {
		t.Fatal("setup: entry not stale")
	}
	g := c.invGen
	c.ResetCodeState()
	if c.staleAt(0xE000) {
		t.Fatal("staleness survived ResetCodeState")
	}
	if c.invGen <= g {
		t.Fatal("ResetCodeState did not advance invGen")
	}
	if c.Predecoded() != p {
		t.Fatal("ResetCodeState dropped the installed decode cache")
	}
}

// TestPowerOnZeroesArchitecturalState pins the recycle primitive on the
// CPU side: registers and all counters return to construction state.
func TestPowerOnZeroesArchitecturalState(t *testing.T) {
	c, _ := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(0x1234), Dst: isa.RegOp(10)},
		isa.Instruction{Op: isa.ADD, Src: isa.Imm(1), Dst: isa.RegOp(10)},
	)
	step(t, c, 2)
	if c.Cycles == 0 || c.Insns == 0 {
		t.Fatal("setup: nothing executed")
	}
	c.PureInsns, c.GuardedInsns = 1, 1
	c.PowerOn()
	if c.R != [isa.NumRegs]uint16{} {
		t.Errorf("registers after PowerOn: %v", c.R)
	}
	if c.Cycles != 0 || c.Insns != 0 || c.Interrupts != 0 || c.prevPC != 0 ||
		c.PureInsns != 0 || c.GuardedInsns != 0 {
		t.Errorf("counters after PowerOn: cycles=%d insns=%d irqs=%d prevPC=%04x pure=%d guarded=%d",
			c.Cycles, c.Insns, c.Interrupts, c.prevPC, c.PureInsns, c.GuardedInsns)
	}
}
