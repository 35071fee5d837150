package cpu

import (
	"fmt"
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// predecoded settles the test space and installs a decode cache over
// its fetchable upper memory, mirroring how core.Machine.EnablePredecode
// wires it.
func predecoded(c *CPU, s *mem.Space) *isa.Predecoded {
	p := isa.Predecode(s.PeekWord, 0xE000, 0xFFFF, nil)
	s.Settle()
	c.SetPredecoded(p)
	return p
}

// staleSet lists the cached entries of p that c calls stale.
func staleSet(c *CPU, p *isa.Predecoded) []uint16 {
	var stale []uint16
	for a := 0xE000; a < 0xFFFC; a += 2 {
		if p.At(uint16(a)) != nil && c.staleAt(uint16(a)) {
			stale = append(stale, uint16(a))
		}
	}
	return stale
}

// TestInvalidateCodeBelowCacheIsFree pins what stales a cached decode
// now that the space's written-page mask is the one record of writes.
// Stores below the cache window — DMEM stores through the space or the
// CPU, and the DMEM + secure-data sweep of a device reset — stale no
// entry, and a direct CPU store there leaves the block executor's
// summary set. A store into a code page clears the summary and stales
// every entry whose fetch window touches that page, the last two word
// slots of the page before included, and nothing else.
func TestInvalidateCodeBelowCacheIsFree(t *testing.T) {
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.Abs(0x0200)}, // 0xE000
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(2), Dst: isa.Abs(0xE104)}, // 0xE004
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},                        // 0xE008
	)
	// A nop sled across the boundary of pages 0xE0 and 0xE1.
	var sled []byte
	for a := 0xE0F0; a < 0xE110; a += 2 {
		sled = append(sled, 0x03, 0x43) // mov r3, r3
	}
	if err := s.LoadImage(0xE0F0, sled); err != nil {
		t.Fatal(err)
	}
	p := predecoded(c, s)
	if got := staleSet(c, p); got != nil {
		t.Fatalf("fresh cache has stale entries %04x", got)
	}

	s.StoreWord(0x0200, 7)
	s.StoreByte(0x0A10, 1)
	s.Reset()
	if got := staleSet(c, p); got != nil {
		t.Fatalf("DMEM stores and Reset staled entries %04x", got)
	}
	c.codeClean = true
	step(t, c, 1) // mov #1, &0x0200
	if !c.codeClean {
		t.Fatal("a direct DMEM store cleared the block executor's summary")
	}
	if got := staleSet(c, p); got != nil {
		t.Fatalf("a direct DMEM store staled entries %04x", got)
	}

	step(t, c, 1) // mov #2, &0xE104
	if c.codeClean {
		t.Fatal("a direct store into a code page left the summary set")
	}
	var want []uint16
	for a := 0xE0FC; a < 0xE110; a += 2 {
		if p.At(uint16(a)) != nil {
			want = append(want, uint16(a))
		}
	}
	if got := staleSet(c, p); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != 10 {
		t.Fatalf("store into page 0xE1 staled %04x, want %04x", got, want)
	}
}

// TestResetCodeStateDiscardsStaleness pins how staleness ends: a
// Restore of the base the space was sealed with after the cache went in
// makes every entry fresh again, with the cache still installed, so
// blocks run again.
func TestResetCodeStateDiscardsStaleness(t *testing.T) {
	c, s := program(t,
		isa.Instruction{Op: isa.MOV, Src: isa.Imm(1), Dst: isa.RegOp(4)},
		isa.Instruction{Op: isa.JMP, JumpOffset: -1},
	)
	p := predecoded(c, s)
	snap := s.Snapshot()
	s.StoreWord(0xE000, 0x4303) // mov r3, r3 over mov #1, r4
	if !c.staleAt(0xE000) {
		t.Fatal("setup: entry not stale")
	}
	if ran, _ := c.RunBlocks(c.Cycles+100, nil, 0); ran || c.BlockExits[ExitStale] != 1 {
		t.Fatalf("stale block ran (%v) or exits %v", ran, c.BlockExits)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := staleSet(c, p); got != nil {
		t.Fatalf("staleness survived Restore: %04x", got)
	}
	if c.Predecoded() != p || c.pages == nil {
		t.Fatal("Restore dropped the installed code table")
	}
	if ran, _ := c.RunBlocks(c.Cycles+100, nil, 0); !ran || c.R[4] != 1 {
		t.Fatalf("restored block did not run: ran %v, r4 %d", ran, c.R[4])
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
	c.PureInsns, c.GuardedInsns, c.SkippedInsns, c.SkippedCycles = 1, 1, 1, 1
	for i := range c.BlockExits {
		c.BlockExits[i] = uint64(i + 1)
	}
	c.PowerOn()
	if c.R != [isa.NumRegs]uint16{} {
		t.Errorf("registers after PowerOn: %v", c.R)
	}
	if c.Cycles != 0 || c.Insns != 0 || c.Interrupts != 0 || c.prevPC != 0 ||
		c.PureInsns != 0 || c.GuardedInsns != 0 || c.SkippedInsns != 0 || c.SkippedCycles != 0 {
		t.Errorf("counters after PowerOn: cycles=%d insns=%d irqs=%d prevPC=%04x pure=%d guarded=%d skipped=%d/%d",
			c.Cycles, c.Insns, c.Interrupts, c.prevPC, c.PureInsns, c.GuardedInsns, c.SkippedInsns, c.SkippedCycles)
	}
	if c.BlockExits != [NumBlockExits]uint64{} {
		t.Errorf("block exits after PowerOn: %v", c.BlockExits)
	}
}
