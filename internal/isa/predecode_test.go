package isa

import (
	"errors"
	"testing"
)

// TestPredecodeMatchesDecode: every cached entry must be exactly the
// lowering of what Decode returns for the same words, and addresses that
// fail to decode, or whose decode LowerUOp refuses, must stay uncached.
func TestPredecodeMatchesDecode(t *testing.T) {
	// A small "memory": two valid instructions, a data word that does
	// not decode, an instruction that decodes but only faults at run
	// time (rra #4), then another instruction.
	mem := map[uint16]uint16{}
	addr := uint16(0x1000)
	put := func(ws []uint16) {
		for _, w := range ws {
			mem[addr] = w
			addr += 2
		}
	}
	put(MustEncode(Instruction{Op: MOV, Src: ImmExt(0x1234), Dst: RegOp(10)}))
	put(MustEncode(Instruction{Op: ADD, Src: RegOp(10), Dst: RegOp(11)}))
	put([]uint16{0x0000})         // invalid opcode word
	put([]uint16{0x1130, 0x0004}) // rra @pc+ with its operand word: rra #4
	put(MustEncode(Instruction{Op: JMP, JumpOffset: -1}))
	end := addr

	read := func(a uint16) uint16 { return mem[a] }
	p := Predecode(read, 0x1000, end, nil)

	refused := 0
	for a := uint16(0x1000); a < end; a += 2 {
		words := []uint16{read(a), read(a + 2), read(a + 4)}
		e := p.EntryAt(a)
		in, _, err := Decode(words)
		if err != nil {
			if e != nil {
				t.Errorf("0x%04x: cached but Decode fails", a)
			}
			continue
		}
		want, lowered := LowerUOp(a, in)
		if !lowered {
			refused++
			if e != nil {
				t.Errorf("0x%04x: cached although LowerUOp refuses %+v", a, in)
			}
			continue
		}
		if e == nil {
			t.Errorf("0x%04x: decodable but not cached", a)
			continue
		}
		if e.U != want {
			t.Errorf("0x%04x: cached %+v, LowerUOp gives %+v", a, e.U, want)
		}
		if e.Size != in.Size() || int(e.Cycles) != Cycles(in) {
			t.Errorf("0x%04x: size/cycles %d/%d, want %d/%d", a, e.Size, e.Cycles, in.Size(), Cycles(in))
		}
	}
	if refused == 0 {
		t.Error("no decode was refused by LowerUOp; the uncached case went untested")
	}
}

func TestPredecodeLookupBounds(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 } // nop (mov r3, r3)
	p := Predecode(read, 0x2000, 0x2010, nil)

	if p.EntryAt(0x1FFE) != nil {
		t.Error("below window cached")
	}
	if p.EntryAt(0x2012) != nil {
		t.Error("above window cached")
	}
	if p.EntryAt(0x2001) != nil {
		t.Error("odd address cached")
	}
	if p.EntryAt(0x2000) == nil {
		t.Error("window start not cached")
	}
	var nilP *Predecoded
	if nilP.EntryAt(0x2000) != nil {
		t.Error("nil cache returned a hit")
	}
	if nilP.Len() != 0 {
		t.Error("nil cache has entries")
	}
}

// TestPredecodeWrapWindow: the top two word slots would need a wrapped
// fetch window and must never be cached.
func TestPredecodeWrapWindow(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 }
	p := Predecode(read, 0xFFF0, 0xFFFF, nil)
	for _, a := range []uint16{0xFFFC, 0xFFFE} {
		if p.EntryAt(a) != nil {
			t.Errorf("0x%04x cached despite wrapping fetch window", a)
		}
	}
	if p.EntryAt(0xFFFA) == nil {
		t.Error("0xFFFA should be cacheable")
	}
}

// TestPredecodeFetchablePredicate: an address whose three-word fetch
// window strays outside the accepted region must stay uncached, because
// the live path's speculative reads there have observable side effects.
func TestPredecodeFetchablePredicate(t *testing.T) {
	read := func(a uint16) uint16 { return 0x4303 } // nop (mov r3, r3)
	fetchable := func(a uint16) bool { return a < 0x3010 }
	p := Predecode(read, 0x3000, 0x3020, fetchable)
	if p.EntryAt(0x3008) == nil {
		t.Error("window fully inside the region should be cached")
	}
	// 0x300C reads 0x300C/0x300E/0x3010; the last word is outside.
	for _, a := range []uint16{0x300C, 0x300E, 0x3010, 0x3012} {
		if p.EntryAt(a) != nil {
			t.Errorf("0x%04x cached despite fetch window leaving the region", a)
		}
	}
}

// TestOpensInstructionMatchesDecode pins the shortcut Predecode takes
// past Decode: a word opensInstruction rejects is exactly one Decode
// refuses as an unrecognized format, whatever follows it.
func TestOpensInstructionMatchesDecode(t *testing.T) {
	for w := 0; w <= 0xFFFF; w++ {
		_, _, err := Decode([]uint16{uint16(w), 0x1234, 0x5678})
		var de *DecodeError
		unrecognized := errors.As(err, &de) && de.Why == "unrecognized format"
		if opensInstruction(uint16(w)) == unrecognized {
			t.Fatalf("word 0x%04x: opensInstruction %v, Decode error %v", w, opensInstruction(uint16(w)), err)
		}
	}
}
