package isa

import "fmt"

// fmt1Ops is the inverse of fmt1Nibble, indexed by nibble-4.
var fmt1Ops = [12]Opcode{MOV, ADD, ADDC, SUBC, SUB, CMP, DADD, BIT, BIC, BIS, XOR, AND}

// fmt2Ops is the inverse of fmt2Field.
var fmt2Ops = [7]Opcode{RRC, SWPB, RRA, SXT, PUSH, CALL, RETI}

// jumpOps is the inverse of jumpCond.
var jumpOps = [8]Opcode{JNE, JEQ, JNC, JC, JN, JGE, JL, JMP}

// DecodeError describes a word sequence that is not a valid instruction.
type DecodeError struct {
	Word uint16
	Why  string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: cannot decode word 0x%04x: %s", e.Word, e.Why)
}

// raiseSrc reconstructs a source Operand from register/As bits, consuming
// an extension word via next() when required. It inverts the constant
// generators exactly as the CPU front-end does.
func raiseSrc(reg Reg, as uint16, byteOp bool, next func() (uint16, bool)) (Operand, error) {
	// Constant generators first.
	if reg == CG {
		switch as {
		case 0:
			return Imm(0), nil
		case 1:
			return Imm(1), nil
		case 2:
			return Imm(2), nil
		case 3:
			if byteOp {
				return Imm(0x00FF), nil
			}
			return Imm(0xFFFF), nil
		}
	}
	if reg == SR {
		switch as {
		case 2:
			return Imm(4), nil
		case 3:
			return Imm(8), nil
		}
	}
	switch as {
	case 0:
		return RegOp(reg), nil
	case 1:
		ext, ok := next()
		if !ok {
			return Operand{}, fmt.Errorf("missing source extension word")
		}
		switch reg {
		case PC:
			return Operand{Mode: ModeSymbolic, Reg: PC, X: ext}, nil
		case SR:
			return Abs(ext), nil
		default:
			return Indexed(ext, reg), nil
		}
	case 2:
		return Indirect(reg), nil
	case 3:
		if reg == PC {
			ext, ok := next()
			if !ok {
				return Operand{}, fmt.Errorf("missing immediate extension word")
			}
			op := Imm(ext)
			if _, cgOK := constGen(ext, byteOp); cgOK {
				// The encoder would have used a constant generator for
				// this value; mark the operand so it re-encodes with the
				// extension word it came from.
				op.NoCG = true
			}
			return op, nil
		}
		return IndirectInc(reg), nil
	}
	return Operand{}, fmt.Errorf("bad addressing mode bits")
}

// raiseDst reconstructs a destination Operand.
func raiseDst(reg Reg, ad uint16, next func() (uint16, bool)) (Operand, error) {
	if ad == 0 {
		return RegOp(reg), nil
	}
	ext, ok := next()
	if !ok {
		return Operand{}, fmt.Errorf("missing destination extension word")
	}
	switch reg {
	case PC:
		return Operand{Mode: ModeSymbolic, Reg: PC, X: ext}, nil
	case SR:
		return Abs(ext), nil
	default:
		return Indexed(ext, reg), nil
	}
}

// opensInstruction reports whether w has the shape of a first word of
// one of the three formats (a jump, a single-operand or a
// double-operand instruction); Decode refuses every other word as an
// unrecognized format.
func opensInstruction(w uint16) bool {
	return w&0xE000 == 0x2000 || w&0xFC00 == 0x1000 || w>>12 >= 0x4
}

// Decode decodes one instruction from the start of words, returning the
// instruction and the number of 16-bit words consumed.
func Decode(words []uint16) (Instruction, int, error) {
	if len(words) == 0 {
		return Instruction{}, 0, &DecodeError{0, "empty input"}
	}
	w := words[0]
	used := 1
	next := func() (uint16, bool) {
		if used >= len(words) {
			return 0, false
		}
		v := words[used]
		used++
		return v, true
	}

	switch {
	case w&0xE000 == 0x2000: // format III: jump
		op := jumpOps[(w>>10)&0x7]
		off := int16(w & 0x03FF)
		if off&0x0200 != 0 { // sign-extend 10-bit field
			off |= ^int16(0x03FF)
		}
		return Instruction{Op: op, JumpOffset: off}, used, nil

	case w&0xFC00 == 0x1000: // format II: single operand
		field := (w >> 7) & 0x7
		if field > 6 {
			return Instruction{}, 0, &DecodeError{w, "reserved single-operand opcode"}
		}
		op := fmt2Ops[field]
		byteOp := w&0x0040 != 0
		if op == RETI {
			// Only the canonical encoding is accepted; the operand bits
			// are unused by hardware but we keep decode∘encode = id.
			if w != 0x1300 {
				return Instruction{}, 0, &DecodeError{w, "non-canonical reti encoding"}
			}
			return Instruction{Op: RETI}, used, nil
		}
		if byteOp && (op == SWPB || op == SXT || op == CALL) {
			return Instruction{}, 0, &DecodeError{w, op.String() + " has no byte form"}
		}
		as := (w >> 4) & 0x3
		reg := Reg(w & 0xF)
		src, err := raiseSrc(reg, as, byteOp, next)
		if err != nil {
			return Instruction{}, 0, &DecodeError{w, err.Error()}
		}
		return Instruction{Op: op, Byte: byteOp, Src: src}, used, nil

	case w>>12 >= 0x4: // format I: double operand
		op := fmt1Ops[w>>12-4]
		byteOp := w&0x0040 != 0
		srcReg := Reg((w >> 8) & 0xF)
		as := (w >> 4) & 0x3
		ad := (w >> 7) & 0x1
		dstReg := Reg(w & 0xF)
		src, err := raiseSrc(srcReg, as, byteOp, next)
		if err != nil {
			return Instruction{}, 0, &DecodeError{w, err.Error()}
		}
		dst, err := raiseDst(dstReg, ad, next)
		if err != nil {
			return Instruction{}, 0, &DecodeError{w, err.Error()}
		}
		return Instruction{Op: op, Byte: byteOp, Src: src, Dst: dst}, used, nil
	}
	return Instruction{}, 0, &DecodeError{w, "unrecognized format"}
}
