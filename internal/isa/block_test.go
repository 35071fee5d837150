package isa

import "testing"

// buildMem assembles a sequence of instructions at base and returns a
// read function plus the end address.
func buildMem(base uint16, ins []Instruction) (func(uint16) uint16, uint16) {
	mem := map[uint16]uint16{}
	addr := base
	for _, in := range ins {
		for _, w := range MustEncode(in) {
			mem[addr] = w
			addr += 2
		}
	}
	return func(a uint16) uint16 { return mem[a] }, addr
}

// TestBuildBlocksEndersAndTotals: a straight-line run ends exactly at
// the jump, the block's cycle total is the sum of its entries, and the
// per-op PC/Next/Cycles fields match the predecode table.
func TestBuildBlocksEndersAndTotals(t *testing.T) {
	ins := []Instruction{
		{Op: MOV, Src: ImmExt(0x1234), Dst: RegOp(10)},
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: XOR, Src: RegOp(11), Dst: RegOp(12)},
		{Op: JNE, JumpOffset: -4},
		{Op: MOV, Src: Imm(1), Dst: RegOp(4)}, // next block
	}
	read, end := buildMem(0x1000, ins)
	p := Predecode(read, 0x1000, end, nil)
	b := BuildBlocks(p)

	blk := b.At(0x1000)
	if blk == nil {
		t.Fatal("no block at the run head")
	}
	if len(blk.Ops) != 4 {
		t.Fatalf("block has %d ops, want 4 (ends at the jump)", len(blk.Ops))
	}
	var cyc uint32
	pc := uint16(0x1000)
	for k, op := range blk.Ops {
		e := p.EntryAt(pc)
		if op.PC != pc || op.Next != pc+e.Size || op.Cycles != e.Cycles {
			t.Errorf("op %d: pc/next/cycles %04x/%04x/%d, want %04x/%04x/%d",
				k, op.PC, op.Next, op.Cycles, pc, pc+e.Size, e.Cycles)
		}
		cyc += uint32(op.Cycles)
		pc = op.Next
	}
	if blk.Cycles != cyc {
		t.Errorf("block cycle total %d, want %d", blk.Cycles, cyc)
	}
	if !blk.Pure {
		t.Error("register-only block not marked pure")
	}
	if b.At(pc) == nil {
		t.Errorf("no block after the jump at 0x%04x", pc)
	}
}

// TestBuildBlocksSuffixSharing: every interior address of a run starts
// its own block, and the suffix aliases the head block's array.
func TestBuildBlocksSuffixSharing(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)}, // 0x1000
		{Op: XOR, Src: RegOp(11), Dst: RegOp(12)}, // 0x1002
		{Op: AND, Src: RegOp(12), Dst: RegOp(13)}, // 0x1004
		{Op: JMP, JumpOffset: -1},                 // 0x1006
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))

	head := b.At(0x1000)
	mid := b.At(0x1002)
	if head == nil || mid == nil {
		t.Fatal("head or interior block missing")
	}
	if len(mid.Ops) != len(head.Ops)-1 {
		t.Fatalf("interior block has %d ops, want %d", len(mid.Ops), len(head.Ops)-1)
	}
	if &mid.Ops[0] != &head.Ops[1] {
		t.Error("interior block does not alias the head block's op array")
	}
	if mid.Cycles != head.Cycles-uint32(head.Ops[0].Cycles) {
		t.Errorf("suffix cycles %d, want %d", mid.Cycles, head.Cycles-uint32(head.Ops[0].Cycles))
	}
}

// TestBuildBlocksPurity: memory operands make a block impure; CALL,
// PUSH and RETI are impure (stack traffic).
func TestBuildBlocksPurity(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: MOV, Src: Operand{Mode: ModeAbsolute, X: 0x0200}, Dst: RegOp(12)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	if blk := b.At(0x1000); blk == nil || blk.Pure {
		t.Errorf("block with a memory load marked pure: %+v", blk)
	}
	if blk := b.At(0x1006); blk == nil || !blk.Pure {
		t.Errorf("jump-only block not pure: %+v", blk)
	}

	ins = []Instruction{
		{Op: PUSH, Src: RegOp(10)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end = buildMem(0x2000, ins)
	b = BuildBlocks(Predecode(read, 0x2000, end, nil))
	if blk := b.At(0x2000); blk == nil || blk.Pure {
		t.Errorf("PUSH block marked pure: %+v", blk)
	}
}

// TestBuildBlocksCap: straight-line runs split at MaxBlockOps so the
// precomputed totals stay admissible under tight deadlines.
func TestBuildBlocksCap(t *testing.T) {
	var ins []Instruction
	for i := 0; i < MaxBlockOps+5; i++ {
		ins = append(ins, Instruction{Op: ADD, Src: Imm(1), Dst: RegOp(10)})
	}
	ins = append(ins, Instruction{Op: JMP, JumpOffset: -1})
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != MaxBlockOps {
		t.Fatalf("head block has %d ops, want the cap %d", len(blk.Ops), MaxBlockOps)
	}
	next := b.At(blk.Ops[len(blk.Ops)-1].Next)
	if next == nil || len(next.Ops) != 6 {
		t.Fatalf("tail block missing or wrong size after the cap")
	}
}

// TestBuildBlocksSRWriteEnds: explicit SR destinations end a block
// (they can toggle GIE/CPUOFF).
func TestBuildBlocksSRWriteEnds(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: RegOp(10), Dst: RegOp(11)},
		{Op: BIS, Src: Imm(8), Dst: RegOp(SR)}, // eint
		{Op: ADD, Src: RegOp(11), Dst: RegOp(12)},
		{Op: JMP, JumpOffset: -1},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != 2 {
		t.Fatalf("block has %d ops, want 2 (ends at the SR write)", len(blk.Ops))
	}
}

// TestMarkLiveFlags: flag results overwritten before any reader are
// dead; the last writer before a conditional jump (and before block
// exit) stays live, and SR read as a data register revives liveness.
func TestMarkLiveFlags(t *testing.T) {
	ins := []Instruction{
		{Op: ADD, Src: Imm(1), Dst: RegOp(10)},    // flags dead (xor overwrites)
		{Op: XOR, Src: RegOp(10), Dst: RegOp(11)}, // flags dead (sub overwrites)
		{Op: SUB, Src: Imm(1), Dst: RegOp(12)},    // live: jne reads Z
		{Op: JNE, JumpOffset: -4},
	}
	read, end := buildMem(0x1000, ins)
	b := BuildBlocks(Predecode(read, 0x1000, end, nil))
	blk := b.At(0x1000)
	if blk == nil || len(blk.Ops) != 4 {
		t.Fatalf("unexpected block shape: %+v", blk)
	}
	// The jump writes no flags, so it is never marked live.
	for k, want := range []bool{false, false, true, false} {
		if blk.Ops[k].Flags != want {
			t.Errorf("op %d liveness = %v, want %v", k, blk.Ops[k].Flags, want)
		}
	}

	// mov sr, r15 reads the flags as data: the preceding writer is live.
	ins = []Instruction{
		{Op: ADD, Src: Imm(1), Dst: RegOp(10)},    // live: mov sr reads flags
		{Op: MOV, Src: RegOp(SR), Dst: RegOp(15)}, // data read of SR
		{Op: SUB, Src: Imm(1), Dst: RegOp(12)},
		{Op: JNE, JumpOffset: -4},
	}
	read, end = buildMem(0x2000, ins)
	b = BuildBlocks(Predecode(read, 0x2000, end, nil))
	blk = b.At(0x2000)
	if blk == nil || len(blk.Ops) != 4 {
		t.Fatalf("unexpected block shape: %+v", blk)
	}
	if !blk.Ops[0].Flags {
		t.Error("flags before a data read of SR must stay live")
	}

	// The final writer is always live: the world after the block reads SR.
	if !blk.Ops[2].Flags {
		t.Error("last flag writer of a block must stay live")
	}
}

// TestBuildBlocksPages: the tables keep only the pages that hold code,
// a run that crosses a page boundary still fuses into one block, and a
// run that wraps past 0xFFFF ends there, even with 0x0000 in the
// window.
func TestBuildBlocksPages(t *testing.T) {
	mov := Instruction{Op: MOV, Src: RegOp(4), Dst: RegOp(5)}
	read, _ := buildMem(0x11FC, []Instruction{mov, mov, mov, {Op: JMP, JumpOffset: -4}})
	p := Predecode(read, 0x1000, 0x1FFF, nil)
	b := BuildBlocks(p)
	if blk := b.At(0x11FC); blk == nil || len(blk.Ops) != 4 || blk.W0 != 0x11 || blk.W1 != 0x12 {
		t.Fatalf("block at 0x11FC: %+v, want the 4 ops across pages 0x11-0x12", blk)
	}
	p0, entries := p.Table()
	b0, blocks := b.Table()
	if p0 != 0x10 || b0 != 0x10 || len(entries) != 16 || len(blocks) != 16 {
		t.Fatalf("windows from pages 0x%02x/0x%02x over %d/%d pages, want 0x10 over 16", p0, b0, len(entries), len(blocks))
	}
	for i := range entries {
		want := i == 1 || i == 2
		if (entries[i] != nil) != want || (blocks[i] != nil) != want {
			t.Errorf("page 0x%02x: entry page %v, block page %v, want %v", 0x10+i, entries[i] != nil, blocks[i] != nil, want)
		}
	}

	// mov #0x1234, &0x0200 at 0xFFFA runs to 0x10000, which wraps to
	// 0x0000, where the window holds a decode too.
	words := map[uint16]uint16{}
	for k, w := range MustEncode(Instruction{Op: MOV, Src: ImmExt(0x1234), Dst: Abs(0x0200)}) {
		words[0xFFFA+2*uint16(k)] = w
	}
	nop := MustEncode(mov)[0]
	wrap := Predecode(func(a uint16) uint16 {
		if w, ok := words[a]; ok {
			return w
		}
		return nop
	}, 0, 0xFFFF, nil)
	if blk := BuildBlocks(wrap).At(0xFFFA); blk == nil || len(blk.Ops) != 1 {
		t.Fatalf("block at 0xFFFA: %+v, want the one op before the wrap", blk)
	}
}
