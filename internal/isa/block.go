package isa

// This file fuses predecoded micro-ops into basic blocks — maximal
// straight-line UOp runs the CPU core can execute without returning to
// the per-instruction dispatch loop. A block ends at anything that can
// redirect control flow or change the SR system bits (jumps, CALL,
// RETI, explicit PC/SR destinations): interior ops therefore never
// read or write the program counter and never toggle GIE/CPUOFF, which
// is what lets the executor hoist the low-power check and the deadline
// comparison out of the instruction loop and to the block boundary.
// The interrupt poll moves there too, because no request can become
// pending inside a block (see cpu.IRQSource); the executor repeats it
// only where a PC-gated source's mask flips between two fused ops
// (cpu.IRQGate).
//
// Like Predecoded, a Blocks table is immutable after construction and
// shared between every machine running byte-identical code; the fleet
// runner's per-ROM predecode artifact carries its block table (see
// Predecoded.Blocks). Staleness stays the CPU core's problem: a block
// is entered only when no page its fetch windows touch has been written
// (the same written-page mask that guards individual predecoded
// entries; see cpu.DirectBus).

// MaxBlockOps caps the instructions fused into one block. Long
// straight-line runs are split into chainable segments so a block's
// precomputed cycle total stays small against tight peripheral
// deadlines — an unsplit 1000-instruction run would never fit under a
// 1000-cycle timer period and would silently fall back to
// per-instruction dispatch.
const MaxBlockOps = 32

// BlockOp is one fused instruction of a Block.
type BlockOp struct {
	// U points at the shared predecoded lowering.
	U *UOp
	// PC is the instruction's fetch address.
	PC uint16
	// Next is the architectural PC during execution (PC + size).
	Next uint16
	// Cycles is this instruction's cycle cost.
	Cycles uint16
	// Flags reports whether the op's C/Z/N/V results are live: the op
	// writes flag bits some later op (or the world after the block,
	// treated as reading everything) can observe before they are
	// overwritten. Ops that write no flags (MOV, BIC, BIS, jumps) are
	// never marked, so they share the elided path. Dead flags may skip
	// the flag computation — but only where mid-block state is
	// unobservable (the pure executor); any path that can hand control
	// back between ops must keep SR exact.
	Flags bool
	// Mem reports whether the op reads or writes memory, so a watcher
	// may hear OnRead/OnWrite from it (the complement of a pure op).
	Mem bool
}

// Block is a basic block: one or more fused ops plus the precomputed
// totals the run loop compares against its deadline/budget limit before
// committing to the whole block.
type Block struct {
	// Ops is the fused run; nil marks "no block starts here". The
	// slice may alias a longer run's array (suffix sharing).
	Ops []BlockOp
	// Cycles is the precomputed total cycle cost of Ops.
	Cycles uint32
	// Pure marks a block whose every op touches only registers and
	// folded constants — no memory reads or writes at all. Pure blocks
	// cannot reach peripherals, cannot modify code, and cannot be
	// observed mid-block except through fetches, so the executor runs
	// them with no per-op guards wherever no watcher needs a fetch
	// after the entry (see cpu.FetchFilter) and no interrupt gate
	// flips. Blocks with memory operands stay executable but keep the
	// guarded loop: an access that leaves plain RAM ends the block
	// unless it is a quiet load at a constant address (cpu.LoadFilter).
	Pure bool
	// Countdown marks a block that is exactly a word `sub #1, Rn` with
	// a constant source on a general-purpose register (the assembler's
	// `dec Rn`) followed by a jne back to its own entry: a delay loop
	// whose end depends on the counter alone, so the pure path may
	// retire all but its last iteration in closed form (see
	// cpu.RunBlocks).
	Countdown bool
	// W0, W1 are the first and last 256-byte page (address >> 8) the
	// ops' fetch windows touch: from the first op's pc to the last op's
	// pc+5. A write marked in any of them stales the block, so they are
	// the range of the written-page mask the CPU core reads before
	// entering the block and after each op that may have stored.
	W0, W1 uint16
}

// BlockPage holds the blocks starting on one 256-byte page, indexed by
// slot (see PageSlots).
type BlockPage [PageSlots]Block

// Blocks is the basic-block table for a predecode window, stored a page
// at a time like the decode cache it is fused from: a page holds a block
// at every address that holds a cached decode, so the table has exactly
// the cache's pages. Read-only after construction; safe to share.
type Blocks struct {
	// page0 is the window's first page; pages[i] holds page page0+i,
	// and is nil when no block starts on it.
	page0 uint16
	pages []*BlockPage
}

// Table exposes the window's first page and the page index for callers
// that inline the lookup (the CPU core): pages[i] holds page page0+i, or
// is nil when no block starts on that page, and slot pc>>1%PageSlots of
// a page holds the block starting at fetch address pc (Ops == nil when
// none does). Blocks are shared and read-only.
func (b *Blocks) Table() (page0 uint16, pages []*BlockPage) {
	if b == nil {
		return 0, nil
	}
	return b.page0, b.pages
}

// At returns the block starting at the fetch address pc, or nil.
func (b *Blocks) At(pc uint16) *Block {
	if b == nil || pc&1 != 0 {
		return nil
	}
	i := int(pc>>8) - int(b.page0)
	if i < 0 || i >= len(b.pages) || b.pages[i] == nil {
		return nil
	}
	if blk := &b.pages[i][pc>>1%PageSlots]; blk.Ops != nil {
		return blk
	}
	return nil
}

// Len reports how many addresses start a block (for tests and
// diagnostics).
func (b *Blocks) Len() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, pg := range b.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pg[i].Ops != nil {
				n++
			}
		}
	}
	return n
}

// endsBlock reports whether no block may continue past u: the op can
// redirect the PC or rewrite SR system bits (GIE/CPUOFF), so the next
// instruction's address or interrupt context is not known statically.
func endsBlock(u *UOp) bool {
	switch u.Class {
	case UJump, UReti:
		return true
	case UFmt2:
		// CALL writes PC; an in-place op on PC or SR (rra pc, sxt sr)
		// rewrites them through its register location.
		return u.Op == CALL || u.SrcK == SrcReg && (u.SrcReg == PC || u.SrcReg == SR)
	default: // UFmt1, UFmt1Reg
		return u.DstK == DstRegK && (u.DstReg == PC || u.DstReg == SR)
	}
}

// opPure reports whether u cannot touch memory at all: every operand is
// a register or a constant folded at predecode time. RETI (stack reads)
// and PUSH/CALL (stack writes) are impure by construction.
func opPure(u *UOp) bool {
	switch u.Class {
	case UJump:
		return true
	case UReti:
		return false
	case UFmt2:
		return u.Op != PUSH && u.Op != CALL && u.SrcK == SrcReg
	default: // UFmt1, UFmt1Reg
		return (u.SrcK == SrcConst || u.SrcK == SrcReg) && u.DstK == DstRegK
	}
}

// arithFlags is the C|Z|N|V mask as a liveness set.
const arithFlags = FlagC | FlagZ | FlagN | FlagV

// flagSets returns the SR arithmetic-flag bits u writes and reads.
// Reads include SR used as a plain data register (mov sr, r15 observes
// the flags as value bits); over-stating reads only costs dead-flag
// opportunities, while over-stating writes would wrongly kill live
// flags, so writes stay exact.
func flagSets(u *UOp) (writes, reads uint16) {
	switch u.Class {
	case UJump:
		switch u.Op {
		case JNE, JEQ:
			return 0, FlagZ
		case JNC, JC:
			return 0, FlagC
		case JN:
			return 0, FlagN
		case JGE, JL:
			return 0, FlagN | FlagV
		}
		return 0, 0 // JMP
	case UReti:
		// Replaces the whole SR from the stack.
		return arithFlags, 0
	case UFmt2:
		switch u.Op {
		case RRC:
			writes, reads = arithFlags, FlagC
		case RRA, SXT:
			writes = arithFlags
		}
		if u.SrcK == SrcReg && u.SrcReg == SR {
			// The op's operand is the SR itself: the flag bits flow in
			// as data (push sr), and in-place ops rewrite them all.
			reads |= arithFlags
			if u.Op != PUSH && u.Op != CALL {
				writes = arithFlags
			}
		}
		return writes, reads
	}
	switch u.Op {
	case ADDC, SUBC, DADD:
		writes, reads = arithFlags, FlagC
	case ADD, SUB, CMP, BIT, XOR, AND:
		writes = arithFlags
	}
	if u.SrcK == SrcReg && u.SrcReg == SR {
		reads |= arithFlags // flags read as source data
	}
	if u.Class != UFmt1Reg && u.DstK == DstRegK && u.DstReg == SR {
		// The destination is the SR itself: every op replaces the flag
		// bits, and all but MOV read the old value first.
		writes = arithFlags
		if u.Op != MOV {
			reads |= arithFlags
		}
	}
	return writes, reads
}

// markLiveFlags runs a backward flag-liveness pass over one block's
// ops. Everything is live at block exit (the world after the block may
// read SR), so only results overwritten strictly inside the block are
// marked dead.
func markLiveFlags(ops []BlockOp) {
	live := uint16(arithFlags)
	for k := len(ops) - 1; k >= 0; k-- {
		w, r := flagSets(ops[k].U)
		ops[k].Flags = w&live != 0
		live = live&^w | r
	}
}

// BuildBlocks fuses the cache's threaded-code entries into basic
// blocks. Runs are walked once: every address inside a materialized run
// receives the run's suffix (sharing the backing array), and a walk
// that reaches an already-materialized address simply ends its block
// there — the executor chains into the existing block at run time.
// Every cached decode lies in exactly one run, so the ops of all runs
// share one array of p.Len() ops, and a page of blocks is allocated
// exactly where the cache holds a page of entries.
func BuildBlocks(p *Predecoded) *Blocks {
	page0, entries := p.Table()
	bl := &Blocks{page0: page0}
	n := p.Len()
	if n == 0 {
		return bl
	}
	bl.pages = make([]*BlockPage, len(entries))
	all := make([]BlockOp, 0, n)
	for i, pg := range entries {
		if pg == nil {
			continue
		}
		for k := range pg {
			pc := (page0+uint16(i))<<8 | uint16(2*k)
			if !pg[k].OK || bl.At(pc) != nil {
				continue
			}
			first := len(all)
			for at := pc; ; {
				e := p.EntryAt(at)
				all = append(all, BlockOp{U: &e.U, PC: at, Next: at + e.Size, Cycles: e.Cycles, Mem: !opPure(&e.U)})
				if endsBlock(&e.U) || len(all)-first >= MaxBlockOps {
					break
				}
				// A run that wraps past 0xFFFF lands on 0x0000, which the
				// walk reached first: it holds no entry or already a block.
				next := at + e.Size
				if p.EntryAt(next) == nil || bl.At(next) != nil {
					break
				}
				at = next
			}
			ops := all[first:len(all):len(all)]
			markLiveFlags(ops)
			// Every op address starts its own block: the suffix of this run.
			for d := range ops {
				sub := ops[d:]
				var cyc uint32
				pure := true
				for j := range sub {
					cyc += uint32(sub[j].Cycles)
					pure = pure && !sub[j].Mem
				}
				*bl.slot(sub[0].PC) = Block{
					Ops:       sub,
					Cycles:    cyc,
					Pure:      pure,
					Countdown: countdown(sub),
					W0:        sub[0].PC >> 8,
					W1:        (sub[len(sub)-1].PC + 5) >> 8,
				}
			}
		}
	}
	return bl
}

// slot returns the table slot of the fetch address pc, in the window,
// allocating its page on first use.
func (b *Blocks) slot(pc uint16) *Block {
	pg := &b.pages[pc>>8-b.page0]
	if *pg == nil {
		*pg = new(BlockPage)
	}
	return &(*pg)[pc>>1%PageSlots]
}

// countdown reports whether ops is a `dec Rn; jnz` self-loop (see
// Block.Countdown). UFmt1Reg already means a word op on R4..R15.
func countdown(ops []BlockOp) bool {
	if len(ops) != 2 {
		return false
	}
	d, j := ops[0].U, ops[1].U
	return d.Class == UFmt1Reg && d.Op == SUB && d.SrcK == SrcConst && d.SrcVal == 1 &&
		j.Class == UJump && j.Op == JNE && j.Target == ops[0].PC
}
