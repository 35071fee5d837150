// Package isa models the MSP430 instruction-set architecture used by the
// openMSP430 core that EILID targets: the three instruction formats
// (double-operand, single-operand, jump), all seven addressing modes, the
// constant generators, byte/word operation widths, and the TI cycle table.
//
// The package is deliberately free of any machine state: it defines the
// instruction representation plus pure encode/decode/disassemble/cycle
// functions. The CPU core (internal/cpu) and the assembler (internal/asm)
// are both built on top of it, which keeps the two sides of the toolchain
// (what we emit and what we execute) provably consistent — the round-trip
// property tests in this package are the anchor for that.
package isa

import "fmt"

// Reg is one of the sixteen MSP430 registers. R0..R3 have architectural
// roles; R4..R15 are general purpose. EILID additionally reserves R4..R7
// by software convention (paper Table III).
type Reg uint8

// Architectural register roles.
const (
	PC Reg = 0 // program counter (r0)
	SP Reg = 1 // stack pointer (r1)
	SR Reg = 2 // status register / constant generator 1 (r2)
	CG Reg = 3 // constant generator 2 (r3)
)

// NumRegs is the size of the register file.
const NumRegs = 16

// String returns the conventional assembly name of the register.
func (r Reg) String() string {
	switch r {
	case PC:
		return "pc"
	case SP:
		return "sp"
	case SR:
		return "sr"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Status-register flag bits.
const (
	FlagC      uint16 = 1 << 0 // carry
	FlagZ      uint16 = 1 << 1 // zero
	FlagN      uint16 = 1 << 2 // negative
	FlagGIE    uint16 = 1 << 3 // general interrupt enable
	FlagCPUOff uint16 = 1 << 4 // CPU off (low-power mode)
	FlagOscOff uint16 = 1 << 5
	FlagSCG0   uint16 = 1 << 6
	FlagSCG1   uint16 = 1 << 7
	FlagV      uint16 = 1 << 8 // signed overflow
)

// AddrMode is a source/destination addressing mode. The seven MSP430 modes
// are represented explicitly rather than as raw As/Ad bit patterns; the
// encoder lowers them (including constant-generator immediates) and the
// decoder raises them back.
type AddrMode uint8

const (
	// ModeRegister operates on Rn directly.
	ModeRegister AddrMode = iota
	// ModeIndexed is x(Rn): memory at Rn+x. With Rn=PC this is the
	// encoding of symbolic mode; with Rn=SR it encodes absolute mode,
	// which we distinguish as ModeAbsolute.
	ModeIndexed
	// ModeAbsolute is &addr: memory at the absolute address.
	ModeAbsolute
	// ModeIndirect is @Rn: memory at Rn (source only).
	ModeIndirect
	// ModeIndirectInc is @Rn+: memory at Rn, then Rn advances by the
	// operand width, except SP, which advances by two in byte ops too
	// (source only).
	ModeIndirectInc
	// ModeImmediate is #n (source only), encoded as @PC+ or via the
	// constant generators for n ∈ {-1,0,1,2,4,8}.
	ModeImmediate
	// ModeSymbolic is addr(PC)-relative ("EDE" in TI syntax). The
	// assembler resolves labels to this mode when asked; X holds the
	// already-computed displacement from the extension-word address.
	ModeSymbolic
)

func (m AddrMode) String() string {
	switch m {
	case ModeRegister:
		return "register"
	case ModeIndexed:
		return "indexed"
	case ModeAbsolute:
		return "absolute"
	case ModeIndirect:
		return "indirect"
	case ModeIndirectInc:
		return "indirect++"
	case ModeImmediate:
		return "immediate"
	case ModeSymbolic:
		return "symbolic"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Operand is one instruction operand.
type Operand struct {
	Mode AddrMode
	Reg  Reg    // register for register/indexed/indirect modes
	X    uint16 // index displacement, absolute address, or immediate value
	// NoCG forces an immediate to be encoded with an extension word even
	// when a constant generator could produce the value. The assembler
	// needs this for forward references (the value is unknown when the
	// instruction is sized), and the decoder sets it when it encounters
	// such an encoding so that decode∘encode is the identity.
	NoCG bool
}

// Reg operand constructor.
func RegOp(r Reg) Operand { return Operand{Mode: ModeRegister, Reg: r} }

// Imm returns an immediate operand #v (constant generators allowed).
func Imm(v uint16) Operand { return Operand{Mode: ModeImmediate, X: v} }

// ImmExt returns an immediate operand #v that must use an extension word.
func ImmExt(v uint16) Operand { return Operand{Mode: ModeImmediate, X: v, NoCG: true} }

// Indexed returns an x(Rn) operand.
func Indexed(x uint16, r Reg) Operand { return Operand{Mode: ModeIndexed, Reg: r, X: x} }

// Abs returns an &addr operand.
func Abs(addr uint16) Operand { return Operand{Mode: ModeAbsolute, X: addr} }

// Indirect returns an @Rn operand.
func Indirect(r Reg) Operand { return Operand{Mode: ModeIndirect, Reg: r} }

// IndirectInc returns an @Rn+ operand.
func IndirectInc(r Reg) Operand { return Operand{Mode: ModeIndirectInc, Reg: r} }

func (o Operand) String() string {
	switch o.Mode {
	case ModeRegister:
		return o.Reg.String()
	case ModeIndexed:
		return fmt.Sprintf("%d(%s)", int16(o.X), o.Reg)
	case ModeAbsolute:
		return fmt.Sprintf("&0x%04x", o.X)
	case ModeIndirect:
		return "@" + o.Reg.String()
	case ModeIndirectInc:
		return "@" + o.Reg.String() + "+"
	case ModeImmediate:
		return fmt.Sprintf("#0x%04x", o.X)
	case ModeSymbolic:
		return fmt.Sprintf("%d(pc)", int16(o.X))
	}
	return "?"
}

// Opcode identifies an MSP430 operation. The numeric values are internal;
// format-specific encodings live in encode.go/decode.go.
type Opcode uint8

// Double-operand (format I) opcodes.
const (
	MOV Opcode = iota
	ADD
	ADDC
	SUBC
	SUB
	CMP
	DADD
	BIT
	BIC
	BIS
	XOR
	AND
	// Single-operand (format II) opcodes.
	RRC
	SWPB
	RRA
	SXT
	PUSH
	CALL
	RETI
	// Jump (format III) opcodes.
	JNE // JNZ
	JEQ // JZ
	JNC
	JC
	JN
	JGE
	JL
	JMP
	numOpcodes
)

var opNames = [numOpcodes]string{
	MOV: "mov", ADD: "add", ADDC: "addc", SUBC: "subc", SUB: "sub",
	CMP: "cmp", DADD: "dadd", BIT: "bit", BIC: "bic", BIS: "bis",
	XOR: "xor", AND: "and",
	RRC: "rrc", SWPB: "swpb", RRA: "rra", SXT: "sxt",
	PUSH: "push", CALL: "call", RETI: "reti",
	JNE: "jne", JEQ: "jeq", JNC: "jnc", JC: "jc",
	JN: "jn", JGE: "jge", JL: "jl", JMP: "jmp",
}

func (op Opcode) String() string {
	if op < numOpcodes {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTwoOperand reports whether op is a format I (double-operand) opcode.
func (op Opcode) IsTwoOperand() bool { return op <= AND }

// IsOneOperand reports whether op is a format II (single-operand) opcode.
func (op Opcode) IsOneOperand() bool { return op >= RRC && op <= RETI }

// IsJump reports whether op is a format III (relative jump) opcode.
func (op Opcode) IsJump() bool { return op >= JNE && op <= JMP }

// WritesDst reports whether a format I opcode writes its destination.
// CMP and BIT only set flags.
func (op Opcode) WritesDst() bool { return op != CMP && op != BIT }

// SetsFlags reports whether the opcode updates the status flags.
func (op Opcode) SetsFlags() bool {
	switch op {
	case MOV, BIC, BIS, PUSH, CALL, SWPB:
		return false
	}
	return true
}

// Instruction is a fully decoded MSP430 instruction.
type Instruction struct {
	Op   Opcode
	Byte bool    // .b suffix: 8-bit operation width (formats I and II)
	Src  Operand // format I source; format II operand
	Dst  Operand // format I destination
	// JumpOffset is the signed word offset of a format III jump:
	// target = addr + 2 + 2*JumpOffset, with JumpOffset in [-1024, 1022]/2
	// i.e. the 10-bit signed field.
	JumpOffset int16
}

// Words returns the encoded length of the instruction in 16-bit words
// (1 to 3). It mirrors Encode without allocating.
func (in Instruction) Words() int {
	switch {
	case in.Op.IsJump():
		return 1
	case in.Op == RETI:
		return 1
	case in.Op.IsOneOperand():
		return 1 + extWords(in.Src, in.Byte)
	default:
		return 1 + extWords(in.Src, in.Byte) + dstExtWords(in.Dst)
	}
}

// Size returns the encoded length in bytes.
func (in Instruction) Size() uint16 { return uint16(in.Words()) * 2 }

// ExtOffsets returns the byte offsets, relative to the instruction start,
// of the source and destination extension words together with presence
// flags. The CPU core needs them to compute symbolic (PC-relative)
// effective addresses, which are anchored at the extension word itself.
func (in Instruction) ExtOffsets() (srcOff int, srcHas bool, dstOff int, dstHas bool) {
	if in.Op.IsJump() || in.Op == RETI {
		return 0, false, 0, false
	}
	off := 2
	if extWords(in.Src, in.Byte) == 1 {
		srcOff, srcHas = off, true
		off += 2
	}
	if in.Op.IsTwoOperand() && dstExtWords(in.Dst) == 1 {
		dstOff, dstHas = off, true
	}
	return
}

// extWords reports how many extension words the source operand needs,
// accounting for the constant generators (which need none).
func extWords(o Operand, byteOp bool) int {
	switch o.Mode {
	case ModeRegister, ModeIndirect, ModeIndirectInc:
		return 0
	case ModeImmediate:
		if _, ok := constGen(o.X, byteOp); ok && !o.NoCG {
			return 0
		}
		return 1
	default: // indexed, absolute, symbolic
		return 1
	}
}

// dstExtWords reports extension words needed by a destination operand.
// Destinations only support register, indexed, absolute and symbolic modes.
func dstExtWords(o Operand) int {
	if o.Mode == ModeRegister {
		return 0
	}
	return 1
}

// constGen maps an immediate value to a constant-generator (reg, As)
// encoding if one exists. Byte operations compare against the low byte
// for -1 (0xFF) since the generated constant is width-truncated by the CPU.
func constGen(v uint16, byteOp bool) (cg struct {
	Reg Reg
	As  uint16
}, ok bool) {
	if byteOp {
		// For byte ops the effective constant is the low byte; 0x00FF
		// behaves as -1. Only canonicalize exact matches.
		if v == 0x00FF {
			return cgEnc(CG, 3), true
		}
	}
	switch v {
	case 0:
		return cgEnc(CG, 0), true
	case 1:
		return cgEnc(CG, 1), true
	case 2:
		return cgEnc(CG, 2), true
	case 0xFFFF:
		if byteOp {
			// In byte mode -1 canonicalizes to 0x00FF (handled above);
			// 0xFFFF keeps its extension word so encode/decode stays
			// bijective.
			break
		}
		return cgEnc(CG, 3), true
	case 4:
		return cgEnc(SR, 2), true
	case 8:
		return cgEnc(SR, 3), true
	}
	return cg, false
}

func cgEnc(r Reg, as uint16) struct {
	Reg Reg
	As  uint16
} {
	return struct {
		Reg Reg
		As  uint16
	}{r, as}
}

// ValidSrc reports whether the operand is legal as a source. Register
// combinations that collide with constant-generator or absolute/symbolic
// encodings (indexed on PC/SR/CG, indirect on PC/SR/CG, register CG) are
// rejected: the dedicated modes must be used instead, which keeps the
// encoding bijective.
func (o Operand) ValidSrc() bool {
	switch o.Mode {
	case ModeRegister:
		return o.Reg.Valid() && o.Reg != CG
	case ModeIndexed:
		return o.Reg.Valid() && o.Reg != PC && o.Reg != SR && o.Reg != CG
	case ModeIndirect, ModeIndirectInc:
		return o.Reg.Valid() && o.Reg != PC && o.Reg != SR && o.Reg != CG
	case ModeAbsolute, ModeSymbolic, ModeImmediate:
		return true
	}
	return false
}

// ValidDst reports whether the operand is legal as a destination.
// MSP430 destinations support register, indexed, symbolic and absolute.
func (o Operand) ValidDst() bool {
	switch o.Mode {
	case ModeRegister:
		return o.Reg.Valid()
	case ModeIndexed:
		return o.Reg.Valid() && o.Reg != PC && o.Reg != SR && o.Reg != CG
	case ModeAbsolute, ModeSymbolic:
		return true
	}
	return false
}

// Validate checks structural well-formedness of the instruction.
func (in Instruction) Validate() error {
	switch {
	case in.Op.IsJump():
		if in.JumpOffset < -512 || in.JumpOffset > 511 {
			return fmt.Errorf("isa: jump offset %d out of 10-bit range", in.JumpOffset)
		}
		return nil
	case in.Op == RETI:
		return nil
	case in.Op.IsOneOperand():
		if !in.Src.ValidSrc() {
			return fmt.Errorf("isa: invalid operand %v for %v", in.Src, in.Op)
		}
		if in.Op != PUSH && in.Op != CALL && in.Src.Mode == ModeImmediate {
			return fmt.Errorf("isa: immediate operand invalid for %v", in.Op)
		}
		if in.Op == SXT && in.Byte {
			return fmt.Errorf("isa: sxt has no byte form")
		}
		if in.Op == SWPB && in.Byte {
			return fmt.Errorf("isa: swpb has no byte form")
		}
		if in.Op == CALL && in.Byte {
			return fmt.Errorf("isa: call has no byte form")
		}
		return nil
	case in.Op.IsTwoOperand():
		if !in.Src.ValidSrc() {
			return fmt.Errorf("isa: invalid source %v for %v", in.Src, in.Op)
		}
		if !in.Dst.ValidDst() {
			return fmt.Errorf("isa: invalid destination %v for %v", in.Dst, in.Op)
		}
		return nil
	}
	return fmt.Errorf("isa: unknown opcode %d", uint8(in.Op))
}
