package isa

// This file lowers decoded instructions into threaded-code micro-ops
// (UOps). A UOp is an Instruction specialized to the fixed address it
// was predecoded at: addressing modes collapse to a handful of operand
// kinds, PC-relative effective addresses (symbolic mode, jump targets,
// register-mode PC reads) fold to constants, immediates are
// width-masked, and the format dispatch becomes a single class token.
// The CPU core's warm path executes UOps without touching the per-step
// format switch, ExtOffsets or operand-resolution logic; anything the
// lowering cannot represent bit-exactly stays uncached and runs on the
// live path (live decode and the generic interpreter).

// UOp execution classes.
const (
	// UFmt1 is a double-operand instruction.
	UFmt1 uint8 = iota
	// UFmt1Reg is a word-width double-operand instruction whose
	// destination is a plain general-purpose register (R4..R15) — the
	// hottest shape, executed without any location indirection.
	UFmt1Reg
	// UFmt2 is a single-operand instruction (PUSH/CALL immediates included).
	UFmt2
	// UJump is a format III jump with a precomputed target.
	UJump
	// UReti is the interrupt return.
	UReti
)

// Source operand kinds after lowering.
const (
	// SrcConst is a constant value (immediate, or a register-mode PC
	// read folded at the fixed fetch address), pre-masked to the
	// operation width.
	SrcConst uint8 = iota
	// SrcReg reads register SrcReg (never PC; that folds to SrcConst).
	SrcReg
	// SrcMemConst reads memory at the constant address SrcVal
	// (absolute mode, or symbolic mode with the extension-word anchor
	// folded in).
	SrcMemConst
	// SrcMemReg reads memory at R[SrcReg] + SrcVal (indexed mode;
	// indirect mode lowers here with SrcVal = 0).
	SrcMemReg
	// SrcMemRegInc reads memory at R[SrcReg], then advances the
	// register by Inc (auto-increment mode).
	SrcMemRegInc
)

// Destination operand kinds after lowering.
const (
	// DstRegK writes register DstReg (PC/SP special cases handled by
	// the executor, as in the generic interpreter).
	DstRegK uint8 = iota
	// DstMemConst addresses memory at the constant DstVal.
	DstMemConst
	// DstMemReg addresses memory at R[DstReg] + DstVal.
	DstMemReg
)

// UOp is one threaded-code micro-op. All fields are resolved at
// predecode time; a UOp is immutable and safe to share.
type UOp struct {
	Class          uint8
	Op             Opcode
	Byte           bool
	SrcK           uint8
	DstK           uint8
	SrcReg, DstReg Reg
	Inc            uint16 // auto-increment step (1 or 2)
	SrcVal         uint16 // SrcConst value / constant EA / index displacement
	DstVal         uint16 // constant EA / index displacement
	Target         uint16 // jump target
}

// LowerUOp compiles in, decoded at the fixed fetch address pc, into its
// threaded-code form. ok is false when the instruction must stay on the
// live path (Predecode leaves it uncached) — operand shapes whose
// run-time error semantics (e.g. an immediate operand on an in-place
// format II op) the fast path does not reproduce.
func LowerUOp(pc uint16, in Instruction) (UOp, bool) {
	u := UOp{Op: in.Op, Byte: in.Byte}
	switch {
	case in.Op.IsJump():
		u.Class = UJump
		u.Target = pc + 2 + 2*uint16(in.JumpOffset)
		return u, true
	case in.Op == RETI:
		u.Class = UReti
		return u, true
	case in.Op.IsOneOperand():
		u.Class = UFmt2
		if in.Src.Mode == ModeImmediate && in.Op != PUSH && in.Op != CALL {
			// The interpreter reports "immediate operand for <op>" at
			// run time; keep that path live.
			return u, false
		}
		// In-place format II ops need a writable location, so a
		// register-mode PC operand must not fold to a constant.
		if !lowerUSrc(&u, pc, in, in.Op == PUSH || in.Op == CALL) {
			return u, false
		}
		return u, true
	}
	u.Class = UFmt1
	if !lowerUSrc(&u, pc, in, true) {
		return u, false
	}
	_, _, dstOff, dstHas := in.ExtOffsets()
	switch in.Dst.Mode {
	case ModeRegister:
		u.DstK = DstRegK
		u.DstReg = in.Dst.Reg
		// PC (control flow), SP (word alignment), SR (flag-write
		// ordering) and CG keep the generic destination handling.
		if !in.Byte && in.Dst.Reg >= 4 {
			u.Class = UFmt1Reg
		}
	case ModeAbsolute:
		u.DstK = DstMemConst
		u.DstVal = in.Dst.X
	case ModeSymbolic:
		if !dstHas {
			return u, false
		}
		u.DstK = DstMemConst
		u.DstVal = pc + uint16(dstOff) + in.Dst.X
	case ModeIndexed:
		u.DstK = DstMemReg
		u.DstReg = in.Dst.Reg
		u.DstVal = in.Dst.X
	default:
		return u, false
	}
	return u, true
}

// lowerUSrc fills the source fields of u. foldPC permits collapsing a
// register-mode PC read into the constant pc+2 the architecture defines
// for it.
func lowerUSrc(u *UOp, pc uint16, in Instruction, foldPC bool) bool {
	srcOff, srcHas, _, _ := in.ExtOffsets()
	switch in.Src.Mode {
	case ModeImmediate:
		v := in.Src.X
		if in.Byte {
			v &= 0x00FF
		}
		u.SrcK = SrcConst
		u.SrcVal = v
	case ModeRegister:
		if in.Src.Reg == PC && foldPC {
			v := pc + 2
			if in.Byte {
				v &= 0x00FF
			}
			u.SrcK = SrcConst
			u.SrcVal = v
			return true
		}
		u.SrcK = SrcReg
		u.SrcReg = in.Src.Reg
	case ModeAbsolute:
		u.SrcK = SrcMemConst
		u.SrcVal = in.Src.X
	case ModeSymbolic:
		if !srcHas {
			return false
		}
		u.SrcK = SrcMemConst
		u.SrcVal = pc + uint16(srcOff) + in.Src.X
	case ModeIndexed:
		u.SrcK = SrcMemReg
		u.SrcReg = in.Src.Reg
		u.SrcVal = in.Src.X
	case ModeIndirect:
		u.SrcK = SrcMemReg
		u.SrcReg = in.Src.Reg
		u.SrcVal = 0
	case ModeIndirectInc:
		u.SrcK = SrcMemRegInc
		u.SrcReg = in.Src.Reg
		u.Inc = 2
		if in.Byte && in.Src.Reg != SP {
			u.Inc = 1 // SP steps by two in either width (POP.B)
		}
	default:
		return false
	}
	return true
}
