package core_test

import (
	"fmt"
	"strings"
	"testing"

	"eilid/internal/core"
	"eilid/internal/isa"
	"eilid/internal/periph"
)

// fuzzBudget is the cycle budget of one FuzzExecDifferential run: a
// few timer periods, an ADC conversion and a ranger measurement.
const fuzzBudget = 20_000

// fuzzFlag is the DMEM word the template's interrupt handler counts up.
const fuzzFlag = 0x0200

// spinPolls are the addresses the spin template may poll: UART status
// and RX, the ADC and ranger done flags, the timer counter, the DMEM
// flag and a secure-data word.
var spinPolls = []uint16{periph.USTATAddr, periph.URXAddr, periph.ADCSTAGES, periph.USSTATAddr, 0x0170, fuzzFlag, 0x0A80}

// fuzzAddrs are the absolute addresses the instruction stream's memory
// operands pick from: every peripheral the template starts, the timer,
// the flag and its neighbour, secure data, the violation latch, the
// halt register, code and the timer's vector.
var fuzzAddrs = []uint16{
	periph.USTATAddr, periph.URXAddr, periph.UTXAddr, periph.ADCCTLAddr, periph.ADCMEMAddr, periph.ADCSTAGES,
	periph.USTRIGAddr, periph.USWIDTHAddr, periph.USSTATAddr, 0x0160, 0x0170, 0x0172,
	periph.P1INAddr, periph.P1OUTAddr, fuzzFlag, fuzzFlag + 2, 0x0A80, periph.ViolationAddr, core.SimCtlAddr,
	0xE000, 0xFFF0,
}

// fuzzBytes reads a fuzz input front to back, as zeros once it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) word() uint16 { return uint16(b.next()) | uint16(b.next())<<8 }

// fuzzOperand decodes one operand on the general-purpose registers:
// register, absolute, indexed, and for a source also immediate,
// indirect and indirect auto-increment.
func fuzzOperand(b *fuzzBytes, src bool) isa.Operand {
	m := b.next()
	r := isa.Reg(4 + m>>4%12)
	modes := byte(3)
	if src {
		modes = 6
	}
	switch m % modes {
	case 0:
		return isa.RegOp(r)
	case 1:
		return isa.Abs(fuzzAddrs[int(b.next())%len(fuzzAddrs)])
	case 2:
		return isa.Indexed(uint16(int8(b.next())), r)
	case 3:
		return isa.Imm(b.word())
	case 4:
		return isa.Indirect(r)
	}
	return isa.IndirectInc(r)
}

// fuzzInstruction decodes one format I or format II instruction (CALL
// and RETI excluded: the control-flow shapes of spinProgram place them).
func fuzzInstruction(b *fuzzBytes) isa.Instruction {
	op := b.next()
	in := isa.Instruction{Byte: op&0x80 != 0, Src: fuzzOperand(b, true)}
	if k := op & 0x7F % 17; k < 12 {
		in.Op = isa.Opcode(k)
		in.Dst = fuzzOperand(b, false)
	} else {
		in.Op = isa.RRC + isa.Opcode(k-12)
	}
	return in
}

// fuzzLines encodes in as a .word line, or as no line when isa.Encode
// refuses it.
func fuzzLines(in isa.Instruction) []string {
	words, err := isa.Encode(in)
	if err != nil {
		return nil
	}
	hex := make([]string, len(words))
	for i, w := range words {
		hex[i] = fmt.Sprintf("0x%04X", w)
	}
	return []string{".word " + strings.Join(hex, ", ")}
}

// fuzzJumps are the eight format III mnemonics.
var fuzzJumps = [8]string{"jne", "jeq", "jnc", "jc", "jn", "jge", "jl", "jmp"}

// fuzzControl decodes one control-flow shape with the generated label
// l: a forward conditional jump over the next 0-2 fuzzed instructions;
// a call to a leaf subroutine of 0-2 fuzzed instructions that ends in
// ret; a push (either width, any source mode) and a pop around a
// fuzzed instruction; a forged interrupt frame (a return label and SR,
// or flags the input picks) that reti pops; or a countdown loop, a
// counter the input picks (zero included) loaded into a register and
// stepped down to zero by `dec` or, if the input says so, by a
// near-miss step the closed form must not take (see
// TestBlockCountdownDifferential). At 3 cycles an iteration a large
// counter outlasts fuzzBudget, so the budget stop lands inside the
// loop. It returns the lines that go inline and those that go after the
// interrupt handler.
func fuzzControl(b *fuzzBytes, l string) (inline, sub []string) {
	switch b.next() % 5 {
	case 0:
		j := b.next()
		inline = append(inline, fuzzJumps[j%8]+" "+l)
		for n := j >> 3 % 3; n > 0; n-- {
			inline = append(inline, fuzzLines(fuzzInstruction(b))...)
		}
		return append(inline, l+":"), nil
	case 1:
		sub = append(sub, l+":")
		for n := b.next() % 3; n > 0; n-- {
			sub = append(sub, fuzzLines(fuzzInstruction(b))...)
		}
		return []string{"call #" + l}, append(sub, "ret")
	case 2:
		push := isa.Instruction{Op: isa.PUSH, Byte: b.next()&1 != 0, Src: fuzzOperand(b, true)}
		inline = append(fuzzLines(push), fuzzLines(fuzzInstruction(b))...)
		return append(inline, fmt.Sprintf("pop r%d", 4+b.next()%12)), nil
	case 3:
		sr := "push sr"
		if f := b.next(); f&0x80 != 0 {
			// C, Z, N and GIE from the low bits, V from bit 4.
			sr = fmt.Sprintf("push #0x%04X", uint16(f&0x0F)|uint16(f&0x10)<<4)
		}
		return []string{"push #" + l, sr, "reti", l + ":"}, nil
	}
	// Bit 0 picks a near-miss step, bits 1-2 which one; the high nibble
	// picks the register.
	k := b.next()
	r := fmt.Sprintf("r%d", 4+k>>4%12)
	step := []string{"dec " + r}
	if k&1 != 0 {
		step = [4][]string{{"decd " + r}, {"dec.b " + r}, {"sub r14, " + r}, {"nop", "dec " + r}}[k>>1&3]
	}
	inline = append([]string{fmt.Sprintf("mov #%d, %s", b.word(), r), l + ":"}, step...)
	return append(inline, "jnz "+l), nil
}

// spinProgram turns a fuzz input into a program: setup that starts the
// timer, the ADC and the ranger as the input asks, an instruction
// stream encoded through isa.Encode, control-flow shapes (see
// fuzzControl), then a spin loop on the polled address, with an
// interrupt handler on every vector that counts the DMEM flag up. It
// also returns the bytes to feed the UART.
//
// Input layout: poll selector; flags (bit 0 GIE, 1 timer IE, 2 ADC
// start, 3 ADC IE, 4 ranger trigger, 5-6 the loop's extra op: none, a
// store or a register change, 7 cmp instead of bit); flags (bits 0-1
// the jump condition, 2 a byte-wide poll, 3-4 UART bytes, 5 the mask in
// the high byte); timer period (little-endian, 0 leaves the timer off);
// poll mask; the UART bytes; the stream's length; the stream; the
// number of control-flow shapes; the shapes. An input that ends before
// the shapes reads as none.
func spinProgram(data []byte) (src string, uart []byte) {
	b := fuzzBytes(data)
	poll := spinPolls[int(b.next())%len(spinPolls)]
	f1, f2 := b.next(), b.next()
	period, mask := b.word(), uint16(b.next())
	if f2&32 != 0 {
		mask <<= 8
	}
	for n := f2 >> 3 & 3; n > 0; n-- {
		uart = append(uart, b.next())
	}
	var setup []string
	if period != 0 {
		ctl := periph.TimerModeUp
		if f1&2 != 0 {
			ctl |= periph.TimerIE
		}
		setup = append(setup, fmt.Sprintf("mov #%d, &0x0172", period), fmt.Sprintf("mov #%d, &0x0160", ctl))
	}
	if f1&4 != 0 {
		ctl := periph.ADCStart
		if f1&8 != 0 {
			ctl |= periph.ADCIE
		}
		setup = append(setup, fmt.Sprintf("mov #%d, &0x%04X", ctl, periph.ADCCTLAddr))
	}
	if f1&16 != 0 {
		setup = append(setup, fmt.Sprintf("mov #1, &0x%04X", periph.USTRIGAddr))
	}
	if f1&1 != 0 {
		setup = append(setup, "eint")
	}
	for n := b.next() % 9; n > 0; n-- {
		setup = append(setup, fuzzLines(fuzzInstruction(&b))...)
	}
	var subs []string
	for i, n := 0, int(b.next()%5); i < n; i++ {
		inline, sub := fuzzControl(&b, fmt.Sprintf("cf%d", i))
		setup, subs = append(setup, inline...), append(subs, sub...)
	}
	extra := [4]string{"", fmt.Sprintf("mov r4, &0x%04X", fuzzFlag+2), "inc r5", ""}[f1>>5&3]
	test := "bit"
	if f1&128 != 0 {
		test = "cmp"
	}
	if f2&4 != 0 {
		test += ".b"
	}
	jump := [4]string{"jz", "jnz", "jc", "jnc"}[f2&3]
	vectors := strings.TrimSuffix(strings.Repeat("isr, ", 15), ", ")
	return fmt.Sprintf(`
.org 0xE000
reset:
    mov #0x0A00, sp
    %s
wait:
    %s
    %s #%d, &0x%04X
    %s wait
    mov #0, &0x00FC
spin:
    jmp spin
isr:
    add #1, &0x%04X
    reti
%s
.org 0xFFE0
.word %s
.word reset
`, strings.Join(setup, "\n    "), extra, test, mask, poll, jump, fuzzFlag, strings.Join(subs, "\n"), vectors), uart
}

// FuzzExecDifferential runs arbitrary instruction streams and
// control flow (jumps, calls, push/pop pairs, forged RETI frames),
// ending in a spin loop whose shape the fuzzer picks, on the cache-less
// reference and on the production path under every defense column,
// with a small cycle budget. Production is watched through the
// defense's own filter, so blocks skip quiet fetches and spin loops
// retire their repeats without running them. Every observable and all
// 64 KiB of RAM must match the reference (the stack is where P1 attacks
// land), and the watcher stream may lack only the fetches and reads the
// filter calls quiet. The committed corpus
// (testdata/fuzz/FuzzExecDifferential) starts from one spin per polled
// address and one program per control-flow shape.
func FuzzExecDifferential(f *testing.F) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, uart := spinProgram(data)
		prog, err := p.BuildOriginal("fuzz.s", src)
		if err != nil {
			t.Fatalf("template does not assemble: %v\n%s", err, src)
		}
		feed := func(m *core.Machine) { m.UART.Feed(uart) }
		entry := prog.Symbols["reset"]
		for _, spec := range core.Defenses() {
			prod, m := cornerRun(t, p, spec, prog, true, entry, feed, fuzzBudget)
			ref, r := cornerRun(t, p, spec, prog, false, entry, feed, fuzzBudget)
			compareAdmitted(t, spec.Name, prod, ref, filterOf(m))
			compareRAM(t, spec.Name, m, r)
		}
		if t.Failed() {
			t.Log(src)
		}
	})
}
