package isa

import "testing"

func TestLowerUOpJumpTarget(t *testing.T) {
	u, ok := LowerUOp(0xE010, Instruction{Op: JNE, JumpOffset: -3})
	if !ok || u.Class != UJump {
		t.Fatalf("jump did not lower: %+v ok=%v", u, ok)
	}
	if want := uint16(0xE010 + 2 - 6); u.Target != want {
		t.Fatalf("target = 0x%04x, want 0x%04x", u.Target, want)
	}
}

func TestLowerUOpSymbolicFoldsToConstEA(t *testing.T) {
	// mov EDE, r5 with the source extension word at pc+2: the effective
	// address anchors at the extension word itself.
	in := Instruction{Op: MOV, Src: Operand{Mode: ModeSymbolic, Reg: PC, X: 0x0100}, Dst: RegOp(5)}
	u, ok := LowerUOp(0xE000, in)
	if !ok || u.SrcK != SrcMemConst {
		t.Fatalf("symbolic source did not lower to a constant EA: %+v ok=%v", u, ok)
	}
	if want := uint16(0xE002 + 0x0100); u.SrcVal != want {
		t.Fatalf("folded EA = 0x%04x, want 0x%04x", u.SrcVal, want)
	}
	// Destination-side symbolic anchors after the source extension word.
	in = Instruction{Op: MOV, Src: ImmExt(0x1234), Dst: Operand{Mode: ModeSymbolic, Reg: PC, X: 0x0020}}
	u, ok = LowerUOp(0xE000, in)
	if !ok || u.DstK != DstMemConst {
		t.Fatalf("symbolic destination did not lower: %+v ok=%v", u, ok)
	}
	if want := uint16(0xE004 + 0x0020); u.DstVal != want {
		t.Fatalf("folded dst EA = 0x%04x, want 0x%04x", u.DstVal, want)
	}
}

func TestLowerUOpByteImmediateMasked(t *testing.T) {
	u, ok := LowerUOp(0xE000, Instruction{Op: MOV, Byte: true, Src: ImmExt(0x12FF), Dst: RegOp(5)})
	if !ok || u.SrcK != SrcConst || u.SrcVal != 0x00FF {
		t.Fatalf("byte immediate not pre-masked: %+v ok=%v", u, ok)
	}
}

func TestLowerUOpRegisterPCFolds(t *testing.T) {
	// Format I source: register-mode PC reads pc+2.
	u, ok := LowerUOp(0xE000, Instruction{Op: MOV, Src: RegOp(PC), Dst: RegOp(5)})
	if !ok || u.SrcK != SrcConst || u.SrcVal != 0xE002 {
		t.Fatalf("register-PC source did not fold: %+v ok=%v", u, ok)
	}
	// In-place format II keeps the register location (it must write back).
	u, ok = LowerUOp(0xE000, Instruction{Op: RRA, Src: RegOp(PC)})
	if !ok || u.SrcK != SrcReg || u.SrcReg != PC {
		t.Fatalf("in-place PC operand must stay a register loc: %+v ok=%v", u, ok)
	}
}

func TestLowerUOpRejectsBadFmt2Immediate(t *testing.T) {
	// RRA #4 decodes (via @PC+ raising) but errors at execution; the
	// lowering must leave it to the generic interpreter.
	if _, ok := LowerUOp(0xE000, Instruction{Op: RRA, Src: Imm(4)}); ok {
		t.Fatal("immediate RRA lowered; its run-time error path would be lost")
	}
	if u, ok := LowerUOp(0xE000, Instruction{Op: PUSH, Src: Imm(4)}); !ok || u.SrcK != SrcConst {
		t.Fatalf("immediate PUSH should lower: %+v ok=%v", u, ok)
	}
}

func TestLowerUOpRegDestClass(t *testing.T) {
	// Word op on a plain register: the specialized class.
	if u, _ := LowerUOp(0, Instruction{Op: ADD, Src: Imm(1), Dst: RegOp(10)}); u.Class != UFmt1Reg {
		t.Fatalf("add #1, r10 class = %d, want UFmt1Reg", u.Class)
	}
	// PC/SP/SR destinations and byte width keep the generic class.
	for _, in := range []Instruction{
		{Op: ADD, Src: Imm(1), Dst: RegOp(PC)},
		{Op: ADD, Src: Imm(1), Dst: RegOp(SP)},
		{Op: ADD, Src: Imm(1), Dst: RegOp(SR)},
		{Op: ADD, Byte: true, Src: Imm(1), Dst: RegOp(10)},
	} {
		if u, _ := LowerUOp(0, in); u.Class != UFmt1 {
			t.Fatalf("%v class = %d, want UFmt1", in, u.Class)
		}
	}
}

// TestPredecodeEntriesCarryUOps: every cached entry is the lowering of
// its decoded instruction, with that instruction's size and cycles, and
// a decode LowerUOp refuses stays uncached.
func TestPredecodeEntriesCarryUOps(t *testing.T) {
	words := map[uint16]uint16{}
	emit := func(addr uint16, in Instruction) uint16 {
		enc := MustEncode(in)
		for i, w := range enc {
			words[addr+uint16(2*i)] = w
		}
		return addr + uint16(2*len(enc))
	}
	a := emit(0x3000, Instruction{Op: MOV, Src: ImmExt(0x1234), Dst: RegOp(7)})
	a = emit(a, Instruction{Op: ADD, Src: Indexed(4, 9), Dst: Abs(0x0200)})
	a = emit(a, Instruction{Op: JMP, JumpOffset: -2})
	// rra @pc+ with its operand word decodes as rra #4, which the
	// encoder refuses to emit.
	rra := a
	words[a], words[a+2] = 0x1130, 0x0004
	a += 4
	_ = emit(a, Instruction{Op: RETI})

	read := func(addr uint16) uint16 { return words[addr] }
	p := Predecode(read, 0x3000, a+6, nil)
	n := 0
	for addr := uint16(0x3000); addr <= a; addr += 2 {
		b := p.At(addr)
		if b == nil {
			continue
		}
		e := &b.Ops[0]
		n++
		in, _, err := Decode([]uint16{read(addr), read(addr + 2), read(addr + 4)})
		if err != nil {
			t.Fatalf("0x%04x: cached but does not decode: %v", addr, err)
		}
		if u, ok := LowerUOp(addr, in); !ok || e.U != u {
			t.Errorf("0x%04x: decode %+v, LowerUOp gives %+v (ok=%v)", addr, e.U, u, ok)
		}
		if e.Next != addr+in.Size() || int(e.Cycles) != Cycles(in) {
			t.Errorf("0x%04x: decode size/cycles %d/%d disagree with instruction %d/%d",
				addr, e.Next-addr, e.Cycles, in.Size(), Cycles(in))
		}
	}
	if n == 0 {
		t.Fatal("predecode cached nothing")
	}
	if in, _, err := Decode([]uint16{read(rra), read(rra + 2), read(rra + 4)}); err != nil {
		t.Fatalf("rra #4 does not decode: %v", err)
	} else if _, ok := LowerUOp(rra, in); ok {
		t.Fatal("LowerUOp accepts rra #4")
	}
	if p.At(rra) != nil {
		t.Error("rra #4 cached although LowerUOp refuses it")
	}
}
