package isa

import (
	"fmt"
	"strings"
)

// Disassemble renders the instruction in assembler syntax. When the
// instruction matches a well-known emulated form (ret, pop, br, nop, clr,
// tst, inc, dec, eint, dint, ...), the alias is shown because that is how
// the code was almost certainly written; the raw form is always accepted
// back by the assembler, so the rendering stays round-trippable.
func Disassemble(in Instruction) string {
	if s, ok := emulatedAlias(in); ok {
		return s
	}
	suffix := ""
	if in.Byte {
		suffix = ".b"
	}
	switch {
	case in.Op.IsJump():
		// Offsets render as $+n (assembler-relative) so the text is
		// position independent.
		delta := 2 + 2*int(in.JumpOffset)
		return fmt.Sprintf("%s $%+d", in.Op, delta)
	case in.Op == RETI:
		return "reti"
	case in.Op.IsOneOperand():
		return fmt.Sprintf("%s%s %s", in.Op, suffix, in.Src)
	default:
		return fmt.Sprintf("%s%s %s, %s", in.Op, suffix, in.Src, in.Dst)
	}
}

// emulatedAlias recognizes the TI emulated-instruction idioms.
func emulatedAlias(in Instruction) (string, bool) {
	b := ""
	if in.Byte {
		b = ".b"
	}
	isImm := func(o Operand, v uint16) bool { return o.Mode == ModeImmediate && o.X == v }
	switch in.Op {
	case MOV:
		switch {
		case in.Src.Mode == ModeIndirectInc && in.Src.Reg == SP && in.Dst == RegOp(PC) && !in.Byte:
			return "ret", true
		case in.Src.Mode == ModeIndirectInc && in.Src.Reg == SP && !in.Byte:
			return "pop " + in.Dst.String(), true
		case in.Dst == RegOp(PC) && !in.Byte && in.Src.Mode == ModeImmediate:
			return fmt.Sprintf("br #0x%04x", in.Src.X), true
		case in.Dst == RegOp(PC) && !in.Byte && in.Src.Mode == ModeRegister:
			return "br " + in.Src.String(), true
		case isImm(in.Src, 0) && in.Dst.Mode == ModeRegister && in.Dst.Reg == CG:
			return "nop", true
		case isImm(in.Src, 0):
			return "clr" + b + " " + in.Dst.String(), true
		}
	case ADD:
		if isImm(in.Src, 1) {
			return "inc" + b + " " + in.Dst.String(), true
		}
		if isImm(in.Src, 2) && !in.Byte {
			return "incd " + in.Dst.String(), true
		}
		if in.Src == in.Dst && in.Src.Mode == ModeRegister {
			return "rla" + b + " " + in.Dst.String(), true
		}
	case SUB:
		if isImm(in.Src, 1) {
			return "dec" + b + " " + in.Dst.String(), true
		}
		if isImm(in.Src, 2) && !in.Byte {
			return "decd " + in.Dst.String(), true
		}
	case CMP:
		if isImm(in.Src, 0) {
			return "tst" + b + " " + in.Dst.String(), true
		}
	case XOR:
		if (isImm(in.Src, 0xFFFF) && !in.Byte) || (isImm(in.Src, 0x00FF) && in.Byte) {
			return "inv" + b + " " + in.Dst.String(), true
		}
	case BIC:
		if in.Dst == RegOp(SR) && !in.Byte {
			switch {
			case isImm(in.Src, FlagC):
				return "clrc", true
			case isImm(in.Src, FlagZ):
				return "clrz", true
			case isImm(in.Src, FlagN):
				return "clrn", true
			case isImm(in.Src, FlagGIE):
				return "dint", true
			}
		}
	case BIS:
		if in.Dst == RegOp(SR) && !in.Byte {
			switch {
			case isImm(in.Src, FlagC):
				return "setc", true
			case isImm(in.Src, FlagZ):
				return "setz", true
			case isImm(in.Src, FlagN):
				return "setn", true
			case isImm(in.Src, FlagGIE):
				return "eint", true
			}
		}
	case ADDC:
		if isImm(in.Src, 0) {
			return "adc" + b + " " + in.Dst.String(), true
		}
		if in.Src == in.Dst && in.Src.Mode == ModeRegister {
			return "rlc" + b + " " + in.Dst.String(), true
		}
	case SUBC:
		if isImm(in.Src, 0) {
			return "sbc" + b + " " + in.Dst.String(), true
		}
	case DADD:
		if isImm(in.Src, 0) {
			return "dadc" + b + " " + in.Dst.String(), true
		}
	}
	return "", false
}

// FormatWords renders machine words as space-separated hex, as used in
// listing files.
func FormatWords(words []uint16) string {
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = fmt.Sprintf("%04x", w)
	}
	return strings.Join(parts, " ")
}
