package cpu

import (
	"errors"
	"fmt"
	"testing"

	"eilid/internal/isa"
	"eilid/internal/mem"
)

// regs and ram are the register and memory deltas of a known-answer
// case.
type (
	regs map[isa.Reg]uint16
	ram  map[uint16]byte
)

// knownAnswer is one instruction with the state before it and the state
// after it, worked out by hand from the instruction descriptions in the
// MSP430x1xx Family User's Guide (TI SLAU049): the words are encoded by
// hand, and nothing is computed by the CPU's own helpers.
//
// Before the step PC is 0xE000, SP 0x0A00, SR and R3 zero, each Rn of
// R4–R15 holds 0xA000|n<<8|n, DMEM bytes 0x09FC–0x09FF hold 0xEE (so a
// push shows which bytes it wrote) and every other byte is zero; regs
// and mem override that. want lists every register that differs after
// the step (PC always), wmem every byte that does.
type knownAnswer struct {
	name string
	code []uint16
	regs regs
	mem  ram
	want regs
	wmem ram
}

// The symbolic cases address 0x0250 (or 0x0251) through the extension
// word at 0xE002: X = 0x0250 - 0xE002 = 0x224E, modulo 2^16.
var knownAnswers = []knownAnswer{
	// RRC: C → MSB → … → LSB → C; N and Z from the result, V reset.
	{name: "rrc r4", code: []uint16{0x1004},
		regs: regs{4: 0x8001, isa.SR: 0x0001},
		want: regs{isa.PC: 0xE002, 4: 0xC000, isa.SR: 0x0005}},
	{name: "rrc @r5", code: []uint16{0x1025},
		regs: regs{5: 0x0240, isa.SR: 0x0100}, mem: ram{0x0240: 0x03, 0x0241: 0x80},
		want: regs{isa.PC: 0xE002, isa.SR: 0x0001}, wmem: ram{0x0240: 0x01, 0x0241: 0x40}},
	{name: "rrc @r5+", code: []uint16{0x1035},
		regs: regs{5: 0x0240, isa.SR: 0x0001},
		want: regs{isa.PC: 0xE002, 5: 0x0242, isa.SR: 0x0004}, wmem: ram{0x0241: 0x80}},
	{name: "rrc 4(r6)", code: []uint16{0x1016, 0x0004},
		regs: regs{6: 0x023C}, mem: ram{0x0240: 0x01},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0003}, wmem: ram{0x0240: 0x00}},
	{name: "rrc EDE", code: []uint16{0x1010, 0x224E},
		regs: regs{isa.SR: 0x0001}, mem: ram{0x0250: 0x10},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0004}, wmem: ram{0x0250: 0x08, 0x0251: 0x80}},
	{name: "rrc &0x0252", code: []uint16{0x1012, 0x0252},
		regs: regs{isa.SR: 0x0107}, mem: ram{0x0252: 0xFF, 0x0253: 0x7F},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0005}, wmem: ram{0x0253: 0xBF}},
	// RRC.B rotates through bit 7; a register destination loses its
	// high byte.
	{name: "rrc.b r4", code: []uint16{0x1044},
		regs: regs{4: 0x1381},
		want: regs{isa.PC: 0xE002, 4: 0x0040, isa.SR: 0x0001}},
	{name: "rrc.b @r5", code: []uint16{0x1065},
		regs: regs{5: 0x0241, isa.SR: 0x0001}, mem: ram{0x0240: 0x01, 0x0241: 0x02},
		want: regs{isa.PC: 0xE002, isa.SR: 0x0004}, wmem: ram{0x0241: 0x81}},
	{name: "rrc.b @r5+", code: []uint16{0x1075},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x01, 0x0241: 0x01},
		want: regs{isa.PC: 0xE002, 5: 0x0241, isa.SR: 0x0003}, wmem: ram{0x0240: 0x00}},
	{name: "rrc.b 3(r6)", code: []uint16{0x1056, 0x0003},
		regs: regs{6: 0x023E, isa.SR: 0x0001}, mem: ram{0x0241: 0xFE},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0004}, wmem: ram{0x0241: 0xFF}},
	{name: "rrc.b EDE", code: []uint16{0x1050, 0x224F},
		mem:  ram{0x0250: 0x01, 0x0251: 0x80},
		want: regs{isa.PC: 0xE004}, wmem: ram{0x0251: 0x40}},
	{name: "rrc.b &0x0252", code: []uint16{0x1052, 0x0252},
		regs: regs{isa.SR: 0x0101}, mem: ram{0x0253: 0x01},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0004}, wmem: ram{0x0252: 0x80}},

	// RRA: MSB → MSB → … → LSB → C; N and Z from the result, V reset.
	{name: "rra r4", code: []uint16{0x1104},
		regs: regs{4: 0x8003, isa.SR: 0x0100},
		want: regs{isa.PC: 0xE002, 4: 0xC001, isa.SR: 0x0005}},
	{name: "rra @r5", code: []uint16{0x1125},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x02, 0x0241: 0x40},
		want: regs{isa.PC: 0xE002}, wmem: ram{0x0240: 0x01, 0x0241: 0x20}},
	{name: "rra @r5+", code: []uint16{0x1135},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x01, 0x0241: 0x80},
		want: regs{isa.PC: 0xE002, 5: 0x0242, isa.SR: 0x0005}, wmem: ram{0x0240: 0x00, 0x0241: 0xC0}},
	{name: "rra 2(r6)", code: []uint16{0x1116, 0x0002},
		regs: regs{6: 0x023E}, mem: ram{0x0240: 0x01},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0003}, wmem: ram{0x0240: 0x00}},
	{name: "rra EDE", code: []uint16{0x1110, 0x224E},
		regs: regs{isa.SR: 0x0007}, mem: ram{0x0251: 0x7E},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0000}, wmem: ram{0x0251: 0x3F}},
	{name: "rra &0x0252", code: []uint16{0x1112, 0x0252},
		mem:  ram{0x0252: 0x04, 0x0253: 0xF0},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0004}, wmem: ram{0x0252: 0x02, 0x0253: 0xF8}},
	// RRA.B keeps bit 7, the byte's sign.
	{name: "rra.b r4", code: []uint16{0x1144},
		regs: regs{4: 0x7F81},
		want: regs{isa.PC: 0xE002, 4: 0x00C0, isa.SR: 0x0005}},
	{name: "rra.b @r5", code: []uint16{0x1165},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x02, 0x0241: 0x01},
		want: regs{isa.PC: 0xE002}, wmem: ram{0x0240: 0x01}},
	{name: "rra.b @r5+", code: []uint16{0x1175},
		regs: regs{5: 0x0243}, mem: ram{0x0242: 0x7F, 0x0243: 0x80},
		want: regs{isa.PC: 0xE002, 5: 0x0244, isa.SR: 0x0004}, wmem: ram{0x0243: 0xC0}},
	{name: "rra.b 1(r6)", code: []uint16{0x1156, 0x0001},
		regs: regs{6: 0x0240}, mem: ram{0x0241: 0x03},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0001}, wmem: ram{0x0241: 0x01}},
	{name: "rra.b EDE", code: []uint16{0x1150, 0x224E},
		mem:  ram{0x0250: 0xFE},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0004}, wmem: ram{0x0250: 0xFF}},
	{name: "rra.b &0x0253", code: []uint16{0x1152, 0x0253},
		mem:  ram{0x0252: 0x01, 0x0253: 0x02},
		want: regs{isa.PC: 0xE004}, wmem: ram{0x0253: 0x01}},

	// SWPB swaps the bytes and leaves SR alone.
	{name: "swpb r4", code: []uint16{0x1084},
		regs: regs{4: 0x12F4, isa.SR: 0x0107},
		want: regs{isa.PC: 0xE002, 4: 0xF412}},
	{name: "swpb @r5", code: []uint16{0x10A5},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x34, 0x0241: 0x12},
		want: regs{isa.PC: 0xE002}, wmem: ram{0x0240: 0x12, 0x0241: 0x34}},
	{name: "swpb @r5+", code: []uint16{0x10B5},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0xCD, 0x0241: 0xAB},
		want: regs{isa.PC: 0xE002, 5: 0x0242}, wmem: ram{0x0240: 0xAB, 0x0241: 0xCD}},
	{name: "swpb 2(r6)", code: []uint16{0x1096, 0x0002},
		regs: regs{6: 0x023E}, mem: ram{0x0240: 0x01, 0x0241: 0x80},
		want: regs{isa.PC: 0xE004}, wmem: ram{0x0240: 0x80, 0x0241: 0x01}},
	{name: "swpb EDE", code: []uint16{0x1090, 0x224E},
		mem:  ram{0x0251: 0xFF},
		want: regs{isa.PC: 0xE004}, wmem: ram{0x0250: 0xFF, 0x0251: 0x00}},
	{name: "swpb &0x0252", code: []uint16{0x1092, 0x0252},
		mem:  ram{0x0252: 0x5A, 0x0253: 0xA5},
		want: regs{isa.PC: 0xE004}, wmem: ram{0x0252: 0xA5, 0x0253: 0x5A}},

	// SXT: bit 7 → bits 8–15; N and Z from the result, C = not Z, V
	// reset.
	{name: "sxt r4", code: []uint16{0x1184},
		regs: regs{4: 0x1280, isa.SR: 0x0100},
		want: regs{isa.PC: 0xE002, 4: 0xFF80, isa.SR: 0x0005}},
	{name: "sxt @r5", code: []uint16{0x11A5},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x7F, 0x0241: 0xFF},
		want: regs{isa.PC: 0xE002, isa.SR: 0x0001}, wmem: ram{0x0241: 0x00}},
	{name: "sxt @r5+", code: []uint16{0x11B5},
		regs: regs{5: 0x0240, isa.SR: 0x0105}, mem: ram{0x0241: 0x12},
		want: regs{isa.PC: 0xE002, 5: 0x0242, isa.SR: 0x0002}, wmem: ram{0x0241: 0x00}},
	{name: "sxt 2(r6)", code: []uint16{0x1196, 0x0002},
		regs: regs{6: 0x023E}, mem: ram{0x0240: 0x80},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0005}, wmem: ram{0x0241: 0xFF}},
	{name: "sxt EDE", code: []uint16{0x1190, 0x224E},
		mem:  ram{0x0250: 0x01, 0x0251: 0xAA},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0001}, wmem: ram{0x0251: 0x00}},
	{name: "sxt &0x0252", code: []uint16{0x1192, 0x0252},
		mem:  ram{0x0252: 0xFF},
		want: regs{isa.PC: 0xE004, isa.SR: 0x0005}, wmem: ram{0x0253: 0xFF}},

	// PUSH: SP - 2 → SP, src → @SP. Flags untouched.
	{name: "push r4", code: []uint16{0x1204},
		regs: regs{4: 0x1234},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x34, 0x09FF: 0x12}},
	{name: "push @r5", code: []uint16{0x1225},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0xEF, 0x0241: 0xBE},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0xEF, 0x09FF: 0xBE}},
	{name: "push @r5+", code: []uint16{0x1235},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x11, 0x0241: 0x22},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE, 5: 0x0242}, wmem: ram{0x09FE: 0x11, 0x09FF: 0x22}},
	{name: "push 4(r6)", code: []uint16{0x1216, 0x0004},
		regs: regs{6: 0x023C}, mem: ram{0x0240: 0x78, 0x0241: 0x56},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x78, 0x09FF: 0x56}},
	{name: "push EDE", code: []uint16{0x1210, 0x224E},
		mem:  ram{0x0250: 0x9A, 0x0251: 0xBC},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x9A, 0x09FF: 0xBC}},
	{name: "push &0x0252", code: []uint16{0x1212, 0x0252},
		mem:  ram{0x0252: 0x01, 0x0253: 0x02},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x01, 0x09FF: 0x02}},
	{name: "push #0x1234 (@pc+)", code: []uint16{0x1230, 0x1234},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x34, 0x09FF: 0x12}},
	{name: "push #8 (r2 as=11)", code: []uint16{0x1232},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x08, 0x09FF: 0x00}},
	{name: "push #-1 (r3 as=11)", code: []uint16{0x1233},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0xFF, 0x09FF: 0xFF}},
	// A register-mode PC read sees the address after the opcode word.
	{name: "push pc", code: []uint16{0x1200},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x02, 0x09FF: 0xE0}},
	// PUSH.B still moves SP by two but writes only the byte at the new
	// SP, the low byte of the stack word.
	{name: "push.b r4", code: []uint16{0x1244},
		regs: regs{4: 0x1234},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x34}},
	{name: "push.b @r5", code: []uint16{0x1265},
		regs: regs{5: 0x0241}, mem: ram{0x0240: 0x11, 0x0241: 0x22},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x22}},
	{name: "push.b @r5+", code: []uint16{0x1275},
		regs: regs{5: 0x0241}, mem: ram{0x0240: 0x33, 0x0241: 0x44},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE, 5: 0x0242}, wmem: ram{0x09FE: 0x44}},
	{name: "push.b 3(r6)", code: []uint16{0x1256, 0x0003},
		regs: regs{6: 0x023E}, mem: ram{0x0240: 0x55, 0x0241: 0x66},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x66}},
	{name: "push.b EDE", code: []uint16{0x1250, 0x224F},
		mem:  ram{0x0250: 0x77, 0x0251: 0x88},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x88}},
	{name: "push.b &0x0252", code: []uint16{0x1252, 0x0252},
		mem:  ram{0x0252: 0x99, 0x0253: 0xAA},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x99}},
	{name: "push.b #0x5634 (@pc+)", code: []uint16{0x1270, 0x5634},
		want: regs{isa.PC: 0xE004, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x34}},
	{name: "push.b #-1 (r3 as=11)", code: []uint16{0x1273},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0xFF}},
	{name: "push.b #2 (r3 as=10)", code: []uint16{0x1263},
		want: regs{isa.PC: 0xE002, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x02}},

	// CALL: dst → tmp, SP - 2 → SP, PC (the address after the whole
	// instruction) → @SP, tmp → PC. Flags untouched.
	{name: "call r4", code: []uint16{0x1284},
		regs: regs{4: 0xE100},
		want: regs{isa.PC: 0xE100, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x02, 0x09FF: 0xE0}},
	{name: "call @r5", code: []uint16{0x12A5},
		regs: regs{5: 0x0240}, mem: ram{0x0241: 0xE2},
		want: regs{isa.PC: 0xE200, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x02, 0x09FF: 0xE0}},
	{name: "call @r5+", code: []uint16{0x12B5},
		regs: regs{5: 0x0240}, mem: ram{0x0240: 0x34, 0x0241: 0xE2},
		want: regs{isa.PC: 0xE234, isa.SP: 0x09FE, 5: 0x0242}, wmem: ram{0x09FE: 0x02, 0x09FF: 0xE0}},
	{name: "call 2(r6)", code: []uint16{0x1296, 0x0002},
		regs: regs{6: 0x023E}, mem: ram{0x0240: 0x10, 0x0241: 0xE3},
		want: regs{isa.PC: 0xE310, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x04, 0x09FF: 0xE0}},
	{name: "call EDE", code: []uint16{0x1290, 0x224E},
		mem:  ram{0x0250: 0x20, 0x0251: 0xE4},
		want: regs{isa.PC: 0xE420, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x04, 0x09FF: 0xE0}},
	{name: "call &0x0252", code: []uint16{0x1292, 0x0252},
		mem:  ram{0x0252: 0x30, 0x0253: 0xE5},
		want: regs{isa.PC: 0xE530, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x04, 0x09FF: 0xE0}},
	{name: "call #0xE300 (@pc+)", code: []uint16{0x12B0, 0xE300},
		want: regs{isa.PC: 0xE300, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x04, 0x09FF: 0xE0}},
	{name: "call #8 (r2 as=11)", code: []uint16{0x12B2},
		want: regs{isa.PC: 0x0008, isa.SP: 0x09FE}, wmem: ram{0x09FE: 0x02, 0x09FF: 0xE0}},
	// The operand is read before SP moves.
	{name: "call @sp", code: []uint16{0x12A1},
		regs: regs{isa.SP: 0x0900}, mem: ram{0x0900: 0x40, 0x0901: 0xE6},
		want: regs{isa.PC: 0xE640, isa.SP: 0x08FE}, wmem: ram{0x08FE: 0x02, 0x08FF: 0xE0}},

	// RETI: @SP → SR, SP + 2 → SP, @SP → PC, SP + 2 → SP.
	{name: "reti", code: []uint16{0x1300},
		regs: regs{isa.SP: 0x09FC}, mem: ram{0x09FC: 0x0F, 0x09FD: 0x01, 0x09FE: 0x23, 0x09FF: 0xE1},
		want: regs{isa.PC: 0xE123, isa.SP: 0x0A00, isa.SR: 0x010F}},

	// Jumps: taken, PC + 2 + 2×offset → PC; otherwise PC + 2. Offset 5
	// lands on 0xE00C. SR is never written.
	{name: "jne taken", code: []uint16{0x2005}, regs: regs{isa.SR: 0x0105}, want: regs{isa.PC: 0xE00C}},
	{name: "jne not taken", code: []uint16{0x2005}, regs: regs{isa.SR: 0x0002}, want: regs{isa.PC: 0xE002}},
	{name: "jeq taken", code: []uint16{0x2405}, regs: regs{isa.SR: 0x0002}, want: regs{isa.PC: 0xE00C}},
	{name: "jeq not taken", code: []uint16{0x2405}, regs: regs{isa.SR: 0x0105}, want: regs{isa.PC: 0xE002}},
	{name: "jnc taken", code: []uint16{0x2805}, regs: regs{isa.SR: 0x0106}, want: regs{isa.PC: 0xE00C}},
	{name: "jnc not taken", code: []uint16{0x2805}, regs: regs{isa.SR: 0x0001}, want: regs{isa.PC: 0xE002}},
	{name: "jc taken", code: []uint16{0x2C05}, regs: regs{isa.SR: 0x0001}, want: regs{isa.PC: 0xE00C}},
	{name: "jc not taken", code: []uint16{0x2C05}, regs: regs{isa.SR: 0x0106}, want: regs{isa.PC: 0xE002}},
	{name: "jn taken", code: []uint16{0x3005}, regs: regs{isa.SR: 0x0004}, want: regs{isa.PC: 0xE00C}},
	{name: "jn not taken", code: []uint16{0x3005}, regs: regs{isa.SR: 0x0103}, want: regs{isa.PC: 0xE002}},
	{name: "jge taken, N=V=0", code: []uint16{0x3405}, regs: regs{isa.SR: 0x0003}, want: regs{isa.PC: 0xE00C}},
	{name: "jge taken, N=V=1", code: []uint16{0x3405}, regs: regs{isa.SR: 0x0104}, want: regs{isa.PC: 0xE00C}},
	{name: "jge not taken, N=1 V=0", code: []uint16{0x3405}, regs: regs{isa.SR: 0x0004}, want: regs{isa.PC: 0xE002}},
	{name: "jge not taken, N=0 V=1", code: []uint16{0x3405}, regs: regs{isa.SR: 0x0100}, want: regs{isa.PC: 0xE002}},
	{name: "jl taken, N=1 V=0", code: []uint16{0x3805}, regs: regs{isa.SR: 0x0004}, want: regs{isa.PC: 0xE00C}},
	{name: "jl taken, N=0 V=1", code: []uint16{0x3805}, regs: regs{isa.SR: 0x0100}, want: regs{isa.PC: 0xE00C}},
	{name: "jl not taken, N=V=1", code: []uint16{0x3805}, regs: regs{isa.SR: 0x0104}, want: regs{isa.PC: 0xE002}},
	{name: "jl not taken, N=V=0", code: []uint16{0x3805}, want: regs{isa.PC: 0xE002}},
	{name: "jmp", code: []uint16{0x3C05}, want: regs{isa.PC: 0xE00C}},
	// The ends of the 10-bit offset field: -512 lands on 0xDC02, +511
	// on 0xE400, and -1 on the jump itself.
	{name: "jmp -512", code: []uint16{0x3E00}, want: regs{isa.PC: 0xDC02}},
	{name: "jmp +511", code: []uint16{0x3DFF}, want: regs{isa.PC: 0xE400}},
	{name: "jmp -1", code: []uint16{0x3FFF}, want: regs{isa.PC: 0xE000}},
	{name: "jne -512 taken", code: []uint16{0x2200}, want: regs{isa.PC: 0xDC02}},
	{name: "jeq -512 not taken", code: []uint16{0x2600}, want: regs{isa.PC: 0xE002}},
	{name: "jl +511 taken", code: []uint16{0x39FF}, regs: regs{isa.SR: 0x0004}, want: regs{isa.PC: 0xE400}},
	{name: "jge +511 not taken", code: []uint16{0x35FF}, regs: regs{isa.SR: 0x0004}, want: regs{isa.PC: 0xE002}},
}

// TestKnownAnswerFormat2AndJumps runs every known answer once on the
// live path (no decode cache: live decode and the generic interpreter)
// and once from a decode cache (threaded-code UOps), and checks every
// register and every byte of memory against the worked answer. It is
// the one check of the format II and jump bodies the two paths share
// that does not compare the simulator with itself.
func TestKnownAnswerFormat2AndJumps(t *testing.T) {
	for _, k := range knownAnswers {
		if _, ok := k.want[isa.PC]; !ok {
			t.Errorf("%s: the answer does not give PC", k.name)
			continue
		}
		for _, cached := range []bool{false, true} {
			if err := runKnownAnswer(k, cached); err != nil {
				t.Errorf("%s (cached %v): %v", k.name, cached, err)
			}
		}
	}
}

// runKnownAnswer sets up the state before k, steps once and compares.
func runKnownAnswer(k knownAnswer, cached bool) error {
	s := mem.MustNewSpace(mem.DefaultLayout())
	var code []byte
	for _, w := range k.code {
		code = append(code, byte(w), byte(w>>8))
	}
	if err := errors.Join(s.LoadImage(0xE000, code), s.LoadImage(0xFFFE, []byte{0x00, 0xE0})); err != nil {
		return err
	}
	for a := uint16(0x09FC); a <= 0x09FF; a++ {
		s.StoreByte(a, 0xEE)
	}
	for a, v := range k.mem {
		s.StoreByte(a, v)
	}
	c := New(s)
	c.Reset(0xFFFE)
	if cached {
		p := predecoded(c, s)
		if p.At(0xE000) == nil || c.staleAt(0xE000) {
			return fmt.Errorf("the instruction would not run from the cache")
		}
	}
	var before [isa.NumRegs]uint16
	for n := 4; n < isa.NumRegs; n++ {
		before[n] = 0xA000 | uint16(n)<<8 | uint16(n)
	}
	before[isa.PC], before[isa.SP] = 0xE000, 0x0A00
	for r, v := range k.regs {
		before[r] = v
	}
	want := before
	for r, v := range k.want {
		want[r] = v
	}
	wantMem := s.ReadRaw(0, mem.Size)
	for a, v := range k.wmem {
		wantMem[a] = v
	}
	c.R = before
	if _, err := c.Step(); err != nil {
		return err
	}
	var errs []error
	for r := range c.R {
		if c.R[r] != want[r] {
			errs = append(errs, fmt.Errorf("%v = 0x%04x, want 0x%04x", isa.Reg(r), c.R[r], want[r]))
		}
	}
	got := s.ReadRaw(0, mem.Size)
	for a := range got {
		if got[a] != wantMem[a] {
			errs = append(errs, fmt.Errorf("byte 0x%04x = 0x%02x, want 0x%02x", a, got[a], wantMem[a]))
		}
	}
	return errors.Join(errs...)
}

// TestOnlyLiveDecodeFaults pins the premise that lets the threaded-code
// path return no error. Over every first word isa.Decode accepts, with
// fixed extension words, isa.LowerUOp refuses exactly RRC, RRA, SWPB
// and SXT with an immediate source (@PC+ or a constant generator, told
// from the raw bits here), and on the live path exactly those words
// fault, each with an ExecError at its PC and no cycle or instruction
// charged. So no word a decode cache holds can fault.
func TestOnlyLiveDecodeFaults(t *testing.T) {
	const pc = 0xE000
	ext := [2]uint16{0x0240, 0x0250}
	s := mem.MustNewSpace(mem.DefaultLayout())
	c := New(s)
	decodable, refused := 0, 0
	for w := 0; w <= 0xFFFF; w++ {
		word := uint16(w)
		in, _, err := isa.Decode([]uint16{word, ext[0], ext[1]})
		if err != nil {
			continue
		}
		decodable++
		as, reg := word>>4&3, word&0xF
		inPlace := word&0xFC00 == 0x1000 && word>>7&7 <= 3 // RRC, SWPB, RRA, SXT
		faults := inPlace && (reg == 0 && as == 3 || reg == 3 || reg == 2 && as >= 2)
		if faults {
			refused++
		}
		if _, ok := isa.LowerUOp(pc, in); ok == faults {
			t.Errorf("word 0x%04x (%v): LowerUOp accepts %v", word, in.Op, ok)
		}
		s.StoreWord(pc, word)
		s.StoreWord(pc+2, ext[0])
		s.StoreWord(pc+4, ext[1])
		for r := range c.R {
			c.R[r] = 0x0300
		}
		c.R[isa.PC], c.R[isa.SP], c.R[isa.SR] = pc, 0x0A00, 0
		cycles, insns := c.Cycles, c.Insns
		_, err = c.Step()
		var ee *ExecError
		switch {
		case !faults && err != nil:
			t.Errorf("word 0x%04x (%v) faults on the live path: %v", word, in.Op, err)
		case faults && (!errors.As(err, &ee) || ee.PC != pc):
			t.Errorf("word 0x%04x (%v): live path returns %v, want an ExecError at 0x%04x", word, in.Op, err, pc)
		case faults && (c.Cycles != cycles || c.Insns != insns):
			t.Errorf("word 0x%04x (%v): the fault charged %d cycles and %d instructions",
				word, in.Op, c.Cycles-cycles, c.Insns-insns)
		}
	}
	if decodable != 57921 || refused != 42 {
		t.Errorf("%d decodable words, %d refused; want 57921 and 42", decodable, refused)
	}
}
