package asm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"eilid/internal/cpu"
	"eilid/internal/isa"
	"eilid/internal/mem"
)

// run assembles src, loads it into a machine, and executes n steps.
func run(t *testing.T, src string, steps int) (*cpu.CPU, *mem.Space, *Program) {
	t.Helper()
	p, err := Assemble("test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	s := mem.MustNewSpace(mem.DefaultLayout())
	if err := p.Image.WriteTo(s); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(s)
	c.Reset(0xFFFE)
	for i := 0; i < steps; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatalf("step %d (pc=0x%04x): %v", i, c.PC(), err)
		}
	}
	return c, s, p
}

const header = `
.org 0xE000
start:
`

const vector = `
.org 0xFFFE
.word start
`

func TestAssembleBasicProgram(t *testing.T) {
	src := header + `
    mov #0x0A00, sp
    mov #0x1234, r10
    add #1, r10
` + vector
	c, _, p := run(t, src, 3)
	if c.R[10] != 0x1235 {
		t.Errorf("r10 = 0x%04x, want 0x1235", c.R[10])
	}
	if got := p.Symbols["start"]; got != 0xE000 {
		t.Errorf("start = 0x%04x", got)
	}
}

func TestLabelsAndJumps(t *testing.T) {
	src := header + `
    mov #0, r10
    mov #5, r11
loop:
    add #1, r10
    dec r11
    jnz loop
done:
    jmp done
` + vector
	c, _, _ := run(t, src, 2+5*3+1)
	if c.R[10] != 5 {
		t.Errorf("loop executed %d times, want 5", c.R[10])
	}
}

func TestForwardReferenceCall(t *testing.T) {
	src := header + `
    mov #0x0A00, sp
    call #func
    jmp start
func:
    mov #99, r12
    ret
` + vector
	c, _, _ := run(t, src, 4)
	if c.R[12] != 99 {
		t.Errorf("r12 = %d, want 99", c.R[12])
	}
	if c.PC() != 0xE008 {
		t.Errorf("pc after ret = 0x%04x", c.PC())
	}
}

func TestEquAndExpressions(t *testing.T) {
	src := `
.equ BASE, 0x0200
.equ OFFSET, 4
.equ ADDR, BASE + OFFSET*2
` + header + `
    mov #ADDR, r5
    mov #(1 << 3) | 1, r6
    mov #~0 & 0xFF, r7
    mov #'A', r8
    mov #-2, r9
` + vector
	c, _, p := run(t, src, 5)
	if c.R[5] != 0x0208 {
		t.Errorf("ADDR = 0x%04x, want 0x0208", c.R[5])
	}
	if c.R[6] != 9 {
		t.Errorf("r6 = %d, want 9", c.R[6])
	}
	if c.R[7] != 0xFF {
		t.Errorf("r7 = 0x%04x, want 0xff", c.R[7])
	}
	if c.R[8] != 'A' {
		t.Errorf("r8 = %d, want 'A'", c.R[8])
	}
	if c.R[9] != 0xFFFE {
		t.Errorf("r9 = 0x%04x, want 0xfffe", c.R[9])
	}
	if p.Symbols["ADDR"] != 0x0208 {
		t.Errorf("symbol ADDR = 0x%04x", p.Symbols["ADDR"])
	}
}

func TestDataDirectives(t *testing.T) {
	src := `
.org 0xE100
table:
.word 0x1111, 0x2222, table
bytes:
.byte 1, 2, 0xFF
msg:
.asciz "Hi\n"
.align 2
aligned:
.space 4
after:
` + header + `
    mov &0xE100, r5
    mov &0xE104, r6
` + vector
	c, s, p := run(t, src, 2)
	if c.R[5] != 0x1111 {
		t.Errorf("word 0 = 0x%04x", c.R[5])
	}
	if c.R[6] != 0xE100 {
		t.Errorf("self-referential word = 0x%04x", c.R[6])
	}
	if got := s.LoadByte(0xE106); got != 1 {
		t.Errorf("byte 0 = %d", got)
	}
	if got := s.LoadByte(0xE108); got != 0xFF {
		t.Errorf("byte 2 = %d", got)
	}
	if got := s.LoadByte(0xE109); got != 'H' {
		t.Errorf("ascii H = %c", got)
	}
	if got := s.LoadByte(0xE10B); got != '\n' {
		t.Errorf("escape = %d", got)
	}
	if got := s.LoadByte(0xE10C); got != 0 {
		t.Errorf("asciz NUL = %d", got)
	}
	if p.Symbols["aligned"]%2 != 0 {
		t.Error(".align produced odd address")
	}
	if p.Symbols["after"] != p.Symbols["aligned"]+4 {
		t.Errorf(".space did not reserve 4 bytes")
	}
}

func TestEmulatedMnemonics(t *testing.T) {
	src := header + `
    mov #0x0A00, sp
    mov #7, r10
    push r10
    clr r10
    pop r11
    inc r11
    incd r11
    dec r11
    tst r11
    jz never
    inv r11
    nop
    eint
    dint
    setc
    clrc
    ret
never:
    jmp never
` + vector
	// Execute through clrc (15 instructions after start).
	c, _, _ := run(t, src, 16)
	if c.R[11] != (7+1+2-1)^0xFFFF {
		t.Errorf("r11 = 0x%04x", c.R[11])
	}
	if c.Flag(isa.FlagC) {
		t.Error("clrc failed")
	}
	if c.Flag(isa.FlagGIE) {
		t.Error("dint failed")
	}
}

func TestByteOperations(t *testing.T) {
	src := header + `
    mov #0x0300, r5
    mov.b #0xAB, 0(r5)
    mov.b @r5, r6
    add.b #1, r6
    cmp.b #0xAC, r6
    jz good
    mov #0xBAD, r15
good:
    jmp good
` + vector
	c, s, _ := run(t, src, 7)
	if got := s.LoadByte(0x0300); got != 0xAB {
		t.Errorf("byte store = 0x%02x", got)
	}
	if c.R[15] == 0xBAD {
		t.Error("byte compare failed")
	}
	if c.R[6] != 0xAC {
		t.Errorf("r6 = 0x%04x", c.R[6])
	}
}

func TestSymbolicAddressing(t *testing.T) {
	src := `
.org 0xE100
value:
.word 0xCAFE
` + header + `
    mov value, r5      ; symbolic (pc-relative) load
    mov #0xBEEF, value ; symbolic store
    mov value, r6
` + vector
	c, s, _ := run(t, src, 3)
	if c.R[5] != 0xCAFE {
		t.Errorf("symbolic load = 0x%04x", c.R[5])
	}
	_ = s
	if c.R[6] != 0xBEEF {
		t.Errorf("symbolic store/load = 0x%04x", c.R[6])
	}
}

func TestIndexedAddressing(t *testing.T) {
	src := header + `
    mov #0x0300, r4
    mov #0x1111, 0(r4)
    mov #0x2222, 2(r4)
    mov 2(r4), r5
    mov -2+4(r4), r6
` + vector
	c, _, _ := run(t, src, 5)
	if c.R[5] != 0x2222 || c.R[6] != 0x2222 {
		t.Errorf("indexed loads r5=0x%04x r6=0x%04x", c.R[5], c.R[6])
	}
}

func TestDollarLocationCounter(t *testing.T) {
	src := header + `
    jmp $+4
    mov #0xBAD, r15
    mov #1, r14
here:
    jmp here
` + vector
	// jmp $+4 skips... $+4 from jmp at 0xE000 lands at 0xE004 which is
	// the mov #0xBAD (4 bytes) start+4? jmp is 2 bytes, mov is 4 bytes:
	// $+4 skips the first word of mov -> lands mid-instruction. Use $+6.
	_ = src
	src2 := header + `
    jmp $+6
    mov #0xBAD, r15
    mov #1, r14
here:
    jmp here
` + vector
	c, _, _ := run(t, src2, 2)
	if c.R[15] == 0xBAD {
		t.Error("$-relative jump did not skip")
	}
	if c.R[14] != 1 {
		t.Error("$-relative jump landed wrong")
	}
}

func TestPCRelativeOperand(t *testing.T) {
	// "N(pc)" uses the raw displacement form the disassembler emits.
	src := header + `
    mov 4(pc), r5   ; ext word at 0xE002; EA = 0xE002+4 = the .word below
    jmp over
.word 0x4455
over:
    jmp over
` + vector
	c, _, _ := run(t, src, 1)
	if c.R[5] != 0x4455 {
		t.Errorf("pc-relative load = 0x%04x, want 0x4455", c.R[5])
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":  ".org 0xE000\n frob r1, r2\n",
		"bad operand count": ".org 0xE000\n mov r1\n",
		"duplicate label":   ".org 0xE000\na:\na:\n",
		"undefined symbol":  ".org 0xE000\n mov #nosuch, r5\n",
		"jump out of range": ".org 0xE000\n jmp far\n.org 0xF000\nfar: nop\n",
		"odd jump target":   ".org 0xE000\nx: .byte 1\n jmp x+1\n",
		"bad directive":     ".orgg 0xE000\n",
		"immediate dest":    ".org 0xE000\n mov r5, #4\n",
		"byte jump":         ".org 0xE000\n jmp.b somewhere\n",
		"overlap":           ".org 0xE000\n.word 1\n.org 0xE000\n.word 2\n",
		"backward overlap":  ".org 0xE004\n.word 1\n.org 0xE000\n.word 2, 3, 4\n",
		"bad string":        ".org 0xE000\n.ascii nope\n",
		"bad align":         ".org 0xE000\n.align 3\n",
	}
	for name, src := range cases {
		if _, err := Assemble("bad.s", src); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

// TestBackwardOrgFillsGap: a backward .org may fill a gap between
// placed bytes as long as it overlaps none of them.
func TestBackwardOrgFillsGap(t *testing.T) {
	prog, err := Assemble("gap.s", ".org 0xE000\n.word 1\n.org 0xE004\n.word 3\n.org 0xE002\n.word 2\n")
	if err != nil {
		t.Fatal(err)
	}
	got, base := prog.Image.Bytes()
	want := []byte{1, 0, 2, 0, 3, 0}
	if base != 0xE000 || !bytes.Equal(got, want) {
		t.Fatalf("image = % x at 0x%04x, want % x at 0xE000", got, base, want)
	}
}

func TestConstGeneratorSizing(t *testing.T) {
	// Immediates resolvable in pass 1 use constant generators; forward
	// references reserve an extension word.
	src := `
.equ SMALL, 2
` + header + `
    mov #SMALL, r5   ; CG: 2 bytes
    mov #LATER, r6   ; forward ref: 4 bytes
    jmp start
.equ UNUSED, 0
` + vector
	// LATER defined... it must be a label to be a forward ref:
	src = strings.Replace(src, ".equ UNUSED, 0", "LATER:\n.word 0", 1)
	p, err := Assemble("cg.s", src)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []uint16
	for _, e := range p.Listing.Entries {
		if e.IsInstr {
			sizes = append(sizes, e.Size())
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("expected 3 instructions, got %d", len(sizes))
	}
	if sizes[0] != 2 {
		t.Errorf("CG immediate size = %d, want 2", sizes[0])
	}
	if sizes[1] != 4 {
		t.Errorf("forward-ref immediate size = %d, want 4", sizes[1])
	}
	// The forward reference to LATER (= a small address? no, 0xE00x) must
	// encode the correct value.
	c, _, _ := run(t, src, 2)
	if c.R[6] != p.Symbols["LATER"] {
		t.Errorf("forward ref value = 0x%04x, want 0x%04x", c.R[6], p.Symbols["LATER"])
	}
}

func TestForwardRefToCGValueKeepsSize(t *testing.T) {
	// A forward reference that RESOLVES to a CG-eligible value must keep
	// its extension word (pass-1 sizing fixed the layout).
	src := header + `
    mov #ZERO, r5
    jmp start
.equ ZERO, 0
` + vector
	p, err := Assemble("fwd.s", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Listing.Entries {
		if e.IsInstr && e.Instr.Op == isa.MOV && e.Instr.Dst == isa.RegOp(5) {
			if e.Size() != 4 {
				t.Errorf("forward-ref CG-value size = %d, want 4 (reserved ext word)", e.Size())
			}
			if !e.Instr.Src.NoCG {
				t.Error("operand should be marked NoCG")
			}
		}
	}
	c, _, _ := run(t, src, 1)
	if c.R[5] != 0 {
		t.Errorf("r5 = %d, want 0", c.R[5])
	}
}

func TestListingRoundTrip(t *testing.T) {
	src := header + `
    mov #0x0A00, sp
    call #fn
stop:
    jmp stop
fn:
    mov #1, r10
    ret
.word 0xABCD
.byte 1,2,3
` + vector
	p, err := Assemble("lst.s", src)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Listing.String()
	back, err := ParseListing(text)
	if err != nil {
		t.Fatalf("ParseListing: %v\n%s", err, text)
	}
	if back.Name != "lst.s" {
		t.Errorf("name = %q", back.Name)
	}
	if len(back.Entries) != len(p.Listing.Entries) {
		t.Fatalf("entries %d != %d", len(back.Entries), len(p.Listing.Entries))
	}
	for i, e := range p.Listing.Entries {
		b := back.Entries[i]
		if b.Addr != e.Addr || b.Line != e.Line || b.Size() != e.Size() {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, b, e)
		}
		if e.IsInstr != b.IsInstr {
			t.Errorf("entry %d IsInstr mismatch", i)
		}
		if e.IsInstr && b.Instr != e.Instr {
			t.Errorf("entry %d instruction mismatch: %v vs %v", i, b.Instr, e.Instr)
		}
	}
	for name, v := range p.Listing.Symbols {
		if back.Symbols[name] != v {
			t.Errorf("symbol %s = 0x%04x, want 0x%04x", name, back.Symbols[name], v)
		}
	}
}

func TestEntryForLine(t *testing.T) {
	src := header + `
    mov #1, r5
    mov #2, r6
` + vector
	p, err := Assemble("x.s", src)
	if err != nil {
		t.Fatal(err)
	}
	// "mov #1, r5" is on line 5 (header contributes 4 lines).
	e, ok := p.Listing.EntryForLine(5)
	if !ok || !e.IsInstr {
		t.Fatalf("no entry for line 5")
	}
	if e.Instr.Op != isa.MOV || e.Instr.Src.X != 1 {
		t.Errorf("wrong entry: %+v", e.Instr)
	}
}

func TestFunctionSymbols(t *testing.T) {
	src := header + `
    call #alpha
halt:
    jmp halt
alpha:
    ret
beta:
    ret
.equ notcode, 0x1234
data:
.word 5
` + vector
	p, err := Assemble("f.s", src)
	if err != nil {
		t.Fatal(err)
	}
	fns := p.Listing.FunctionSymbols()
	want := map[string]bool{"start": true, "halt": true, "alpha": true, "beta": true}
	for _, f := range fns {
		if !want[f] {
			t.Errorf("unexpected function symbol %q", f)
		}
		delete(want, f)
	}
	if len(want) != 0 {
		t.Errorf("missing function symbols: %v", want)
	}
}

func TestImageChunksAndSize(t *testing.T) {
	src := `
.org 0xE000
    nop
    nop
.org 0xE100
    nop
.org 0xFFFE
.word 0xE000
`
	p, err := Assemble("img.s", src)
	if err != nil {
		t.Fatal(err)
	}
	chunks := p.Image.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3 (%v)", len(chunks), chunks)
	}
	if chunks[0].Addr != 0xE000 || len(chunks[0].Data) != 4 {
		t.Errorf("chunk 0 = %+v", chunks[0])
	}
	if p.Image.Size() != 8 {
		t.Errorf("size = %d, want 8", p.Image.Size())
	}
	if p.Image.SizeInRange(0xE000, 0xF7FF) != 6 {
		t.Errorf("SizeInRange = %d, want 6", p.Image.SizeInRange(0xE000, 0xF7FF))
	}
}

// Property: disassembling a random instruction and reassembling it yields
// the same machine words (assembler ∘ disassembler = identity on the
// instruction set, modulo the NoCG distinction the text cannot express).
func TestDisasmAssembleRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		in := randomInstructionForAsm(r)
		wantWords, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		text := isa.Disassemble(in)
		if in.Op.IsJump() {
			// Jump text is $-relative; anchor it at a fixed origin.
			src := ".org 0xE000\n " + text + "\n"
			p, err := Assemble("rt.s", src)
			if err != nil {
				t.Fatalf("assemble %q: %v", text, err)
			}
			var gotW []uint16
			for _, e := range p.Listing.Entries {
				if e.IsInstr {
					gotW = e.Words
					break
				}
			}
			if len(gotW) != len(wantWords) || gotW[0] != wantWords[0] {
				t.Fatalf("round trip %q: got %v want %v", text, gotW, wantWords)
			}
			continue
		}
		src := ".org 0xE000\n " + text + "\n"
		p, err := Assemble("rt.s", src)
		if err != nil {
			t.Fatalf("assemble %q (%+v): %v", text, in, err)
		}
		var entry *ListEntry
		for j := range p.Listing.Entries {
			if p.Listing.Entries[j].IsInstr {
				entry = &p.Listing.Entries[j]
				break
			}
		}
		if entry == nil {
			t.Fatalf("no instruction assembled for %q", text)
		}
		if len(entry.Words) != len(wantWords) {
			t.Fatalf("round trip %q: got %v want %v (in=%+v)", text, entry.Words, wantWords, in)
		}
		for k := range wantWords {
			if entry.Words[k] != wantWords[k] {
				t.Fatalf("round trip %q: got %v want %v", text, entry.Words, wantWords)
			}
		}
	}
}

// randomInstructionForAsm generates instructions whose disassembly is
// reassemblable: no NoCG immediates and no symbolic operands with
// displacements that collide with label syntax (symbolic prints as
// "N(pc)" which the assembler accepts as raw displacement).
func randomInstructionForAsm(r *rand.Rand) isa.Instruction {
	genReg := func() isa.Reg {
		for {
			reg := isa.Reg(r.Intn(isa.NumRegs))
			if reg == isa.CG || reg == isa.SR || reg == isa.PC {
				continue
			}
			return reg
		}
	}
	genOperand := func(dst bool) isa.Operand {
		switch r.Intn(6) {
		case 0:
			return isa.RegOp(genReg())
		case 1:
			return isa.Indexed(uint16(r.Uint32()), genReg())
		case 2:
			return isa.Abs(uint16(r.Uint32()))
		case 3:
			if dst {
				return isa.RegOp(genReg())
			}
			return isa.Indirect(genReg())
		case 4:
			if dst {
				return isa.RegOp(genReg())
			}
			return isa.IndirectInc(genReg())
		default:
			if dst {
				return isa.Abs(uint16(r.Uint32()))
			}
			return isa.Imm(uint16(r.Uint32()))
		}
	}
	ops := []isa.Opcode{
		isa.MOV, isa.ADD, isa.ADDC, isa.SUBC, isa.SUB, isa.CMP, isa.DADD,
		isa.BIT, isa.BIC, isa.BIS, isa.XOR, isa.AND,
		isa.RRC, isa.SWPB, isa.RRA, isa.SXT, isa.PUSH, isa.CALL, isa.RETI,
		isa.JNE, isa.JEQ, isa.JNC, isa.JC, isa.JN, isa.JGE, isa.JL, isa.JMP,
	}
	op := ops[r.Intn(len(ops))]
	in := isa.Instruction{Op: op}
	switch {
	case op.IsJump():
		in.JumpOffset = int16(r.Intn(1024) - 512)
	case op == isa.RETI:
	case op.IsOneOperand():
		in.Byte = r.Intn(2) == 0 && op != isa.SWPB && op != isa.SXT && op != isa.CALL
		for {
			in.Src = genOperand(false)
			if op == isa.PUSH || op == isa.CALL || in.Src.Mode != isa.ModeImmediate {
				break
			}
		}
	default:
		in.Byte = r.Intn(2) == 0
		in.Src = genOperand(false)
		in.Dst = genOperand(true)
	}
	if in.Byte {
		// Canonicalize immediates the way the assembler does for byte ops.
		if in.Src.Mode == isa.ModeImmediate {
			in.Src.X &= 0x00FF
		}
	}
	return in
}

func TestAssembleIdempotentProperty(t *testing.T) {
	// Assembling the same source twice yields identical images and
	// listings (determinism matters: the EILID pipeline relies on it).
	src := header + `
    mov #0x0A00, sp
    call #f
h:  jmp h
f:  push r10
    mov #0xFF, r10
    pop r10
    ret
` + vector
	p1, err := Assemble("a.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble("a.s", src)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Listing.String() != p2.Listing.String() {
		t.Error("listings differ across runs")
	}
	b1, base1 := p1.Image.Bytes()
	b2, base2 := p2.Image.Bytes()
	if base1 != base2 || len(b1) != len(b2) {
		t.Fatal("image shape differs")
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("image bytes differ")
		}
	}
}
