// Package cpu implements a cycle-accurate MSP430 CPU core on top of the
// instruction model in internal/isa. It executes the full classic
// instruction set (all three formats, all addressing modes, byte/word
// widths), services maskable interrupts with the architectural
// push-PC/push-SR/vector sequence, and accounts cycles per the TI table so
// that simulated run times correspond to what the paper measures in
// Vivado behavioural simulation.
//
// The core exposes a Watcher interface carrying the architectural signals
// (instruction fetch address, data reads/writes with the issuing PC,
// interrupt acceptance) that the CASU/EILID hardware monitor in
// internal/casu observes — the same bus- and PC-level signals the paper's
// Verilog monitor taps.
package cpu

import (
	"fmt"

	"eilid/internal/isa"
)

// Bus is the memory system the CPU drives (implemented by mem.Space).
type Bus interface {
	LoadWord(addr uint16) uint16
	StoreWord(addr uint16, v uint16)
	LoadByte(addr uint16) uint8
	StoreByte(addr uint16, v uint8)
}

// DirectBus is an optional Bus refinement (implemented by mem.Space)
// exposing the backing slab, its written-page mask and per-address
// plain-memory flags so the core can inline accesses to plain RAM
// without an interface call. New takes the three pointers once, so they
// must stay valid, and the flags unchanged, for the bus's life. The
// fast path reproduces the bus semantics for such addresses exactly:
// word alignment, little-endian layout and the page mark (bit addr>>8
// of the 256-bit mask: mem.Space.Restore copies back only the marked
// 256-byte pages). All other addresses (peripheral handlers, unmapped
// space with its bus-error accounting) go through the Bus methods
// unchanged.
//
// The mask is also the core's only record of which cached decodes a
// write may have staled: every write to the slab, on the CPU or off it,
// marks its page, and the bus clears the mask only when the slab again
// matches the image an installed cache was built from (mem.Space's
// Settle, Snapshot and Restore). A cached decode is stale when its
// fetch window, pc..pc+5, touches a marked page. A CPU whose bus is not
// a DirectBus has no mask to read, so it trusts no cached decode.
type DirectBus interface {
	Bus
	Direct() (slab *[1 << 16]byte, written *[4]uint64, plain *[1 << 16]bool)
}

// Watcher observes architectural events. All methods are called
// synchronously during Step; a nil watcher disables observation.
type Watcher interface {
	// OnFetch fires before the instruction at pc executes; prev is the
	// address of the previously executed instruction (or the reset
	// vector target after reset). Inside a fused block it is skipped
	// where the watcher's FetchFilter calls the step quiet.
	OnFetch(prev, pc uint16)
	// OnRead fires for each data-bus read issued by the instruction at pc.
	OnRead(pc, addr uint16, byteWide bool)
	// OnWrite fires for each data-bus write issued by the instruction at pc.
	OnWrite(pc, addr uint16, byteWide bool, value uint16)
	// OnInterrupt fires when an interrupt on the given line is accepted,
	// before the context push; pc is the interrupted instruction address.
	OnInterrupt(pc uint16, line int)
}

// FetchFilter is an optional Watcher refinement that lets block
// execution skip fetches the watcher does not need. QuietFetch(prev, pc)
// reports that OnFetch(prev, pc), for a straight-line step from the
// instruction at prev to the one at pc inside a fused block, can
// neither raise a violation nor change state that a later callback or
// violation poll reads. It must be static: a function of the two
// addresses, the watcher's configuration and the code image, never of
// run-time state. RunBlocks evaluates it once per fused op pair and
// then delivers only the fetches it does not call quiet, plus every
// block's entry fetch and each fetch where an IRQGate's mask flips.
// Step, and every watcher without the method, keep every-fetch
// delivery.
type FetchFilter interface {
	QuietFetch(prev, pc uint16) bool
}

// ReadFilter is an optional Watcher refinement, the read-side twin of
// FetchFilter. QuietRead(pc, addr) reports that OnRead(pc, addr, ·)
// can neither raise a violation nor change state that a later callback
// or violation poll reads. It must be static, like QuietFetch. Every
// instruction RunBlocks runs still delivers every read; the filter only
// lets it retire the repeats of a spin loop without running them.
type ReadFilter interface {
	QuietRead(pc, addr uint16) bool
}

// LoadFilter is an optional Bus refinement (implemented by mem.Space)
// that lets block execution run through peripheral reads.
// QuietLoad(addr, byteWide) reports that the load at addr, made before
// the next peripheral event the caller's limit stands for, changes
// nothing beyond lazy catch-up and raises no interrupt request.
// HoldsStill(addr, byteWide) reports that the value that load returns
// changes only at that event or through an access that is not a quiet
// load, so a loop that repeats it reads the same value each time. The
// answers must not change once RunBlocks has first run: the block plan
// reads them once per constant-address operand.
type LoadFilter interface {
	QuietLoad(addr uint16, byteWide bool) bool
	HoldsStill(addr uint16, byteWide bool) bool
}

// IRQSource supplies pending interrupt lines (implemented by
// periph.IRQController). Lower line numbers are lower priority; the reset
// line (15) is handled by the machine, not the CPU.
//
// The set of pending requests may change only when a peripheral syncs
// (between RunBlocks calls, at the deadlines their limit stands for) or
// when an access leaves plain RAM without being a quiet load, and both
// already end a block. So RunBlocks polls at block entry only, plus
// where an IRQGate's mask flips inside a block.
type IRQSource interface {
	// HighestPending returns the highest-priority pending maskable line,
	// or -1 if none.
	HighestPending() int
	// Acknowledge clears the pending flag for the line.
	Acknowledge(line int)
}

// IRQGate is an optional IRQSource refinement for sources whose
// visibility depends on the PC. Masked(pc) reports that HighestPending
// returns -1 while the PC is pc, whatever is pending; it must be static,
// a function of pc alone. A source without the method is PC-independent.
type IRQGate interface {
	Masked(pc uint16) bool
}

// ExecError reports a fault the real hardware would stumble through but a
// simulator must surface: a word that does not decode, or an immediate
// operand on RRC, RRA, SWPB or SXT. Only Step's live path raises it:
// isa.LowerUOp refuses those shapes, so nothing a decode cache holds can
// fault, and the threaded-code path and RunBlocks return no error.
type ExecError struct {
	PC  uint16
	Err error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("cpu: fault at pc=0x%04x: %v", e.PC, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// CPU is the processor state.
type CPU struct {
	R   [isa.NumRegs]uint16
	bus Bus

	// Watch observes architectural events (may be nil).
	Watch Watcher
	// IRQ supplies maskable interrupt requests (may be nil).
	IRQ IRQSource

	// Cycles is total MCLK cycles since power-on (monotonic across
	// resets, like a bench clock).
	Cycles uint64
	// Insns counts executed instructions.
	Insns uint64
	// Interrupts counts accepted interrupts.
	Interrupts uint64

	prevPC uint16

	// pre is an optional shared read-only decode cache; page0 and pages
	// mirror its page index (see isa.Predecoded.Table) so the lookups in
	// Step and RunBlocks need no pointer chase through the cache object:
	// one load of the page, which is nil on a page with no cached
	// decode, then the block, whose first op is the decode Step runs.
	// Whether a decode or a block is stale is read from the bus's
	// written-page mask (see DirectBus).
	// codeClean is the block executor's summary of the mask: no page at
	// or above the cache window's first page is marked, so no cached
	// decode is stale and admission need not read the mask. RunBlocks
	// recomputes it on entry, since writes off the CPU (harness pokes,
	// LoadImage, Space.Reset) land only between its calls, and a direct
	// store at or above that page clears it.
	// busTouched is set by every bus access that leaves the plain-RAM
	// fast path; the block executor clears it per block and ends the
	// block after any op that set it, unless the plan calls the op's
	// accesses quiet, handing control back to the machine loop exactly
	// where per-instruction dispatch would have observed the side
	// effect (peripheral state, halt, a new interrupt request).
	pre        *isa.Predecoded
	page0      uint16
	pages      []*isa.BlockPage
	codeClean  bool
	busTouched bool

	// slab/written/plain are the DirectBus fast path (nil on plain
	// buses).
	slab    *[1 << 16]byte
	written *[4]uint64
	plain   *[1 << 16]bool

	// PureInsns and GuardedInsns count the instructions RunBlocks
	// retired on its pure path and in its guarded loop, and
	// SkippedInsns those it retired without running them, as the
	// repeats of a spin loop; Step retired the rest of Insns. PureInsns
	// includes the iterations of countdown loops retired in closed form
	// (see RunBlocks); SkippedInsns counts spin repeats only.
	// SkippedCycles are the cycles of the skipped instructions.
	PureInsns, GuardedInsns, SkippedInsns uint64
	SkippedCycles                         uint64
	// BlockExits counts RunBlocks returns by reason, indexed by the
	// Exit constants; the counts sum to the number of RunBlocks calls.
	BlockExits [NumBlockExits]uint64

	// The block plan (see plan) holds, per slot of the decode cache's
	// window (see slot), the loud, admit, quiet and spin bits derived
	// from planWatch, planIRQ and the bus. planned is cleared whenever
	// the cache changes.
	planned                  bool
	planWatch                Watcher
	planIRQ                  IRQSource
	loud, admit, quiet, spin []uint64
}

// Block-exit reasons, the indices of CPU.BlockExits.
const (
	// ExitBus: an access left plain RAM and was not a quiet load.
	ExitBus = iota
	// ExitStale: a write staled the next block or the running one.
	ExitStale
	// ExitStop: the stop poll reported a monitor violation.
	ExitStop
	// ExitIRQ: an interrupt request was visible at a poll.
	ExitIRQ
	// ExitLimit: the next block would not finish before the limit.
	ExitLimit
	// ExitOther: CPUOFF, a PC with no cached decode, no decode cache
	// at all, or a next block that starts at the break address or holds
	// it after its first op (see RunBlocks).
	ExitOther
	// NumBlockExits is the number of reasons.
	NumBlockExits
)

// New creates a CPU attached to the bus. Call Reset before stepping.
// A DirectBus hands over its slab, mask and plain-memory flags here,
// once: the flags must not change for the bus's life, as mem.Space's
// do not, since its peripheral map is fixed when it is built.
func New(bus Bus) *CPU {
	c := &CPU{bus: bus}
	if d, ok := bus.(DirectBus); ok {
		c.slab, c.written, c.plain = d.Direct()
	}
	return c
}

// PC returns the program counter.
func (c *CPU) PC() uint16 { return c.R[isa.PC] }

// SP returns the stack pointer.
func (c *CPU) SP() uint16 { return c.R[isa.SP] }

// SR returns the status register.
func (c *CPU) SR() uint16 { return c.R[isa.SR] }

// PrevPC returns the address of the most recently executed instruction.
func (c *CPU) PrevPC() uint16 { return c.prevPC }

// SetPredecoded installs (or, with nil, removes) a decode cache built
// from the memory contents the CPU currently fetches from: its decodes
// for Step and its blocks for RunBlocks. The cache is read-only and may
// be shared across CPUs running identical code. A decode or block is
// trusted while no page its fetch windows touch is marked in the bus's
// written-page mask, so the caller settles the bus first
// (mem.Space.Settle, as core.Machine.UsePredecoded does): a page still
// marked from the image load would keep its code on the live path.
// Installing drops the block plan, which RunBlocks then derives afresh.
func (c *CPU) SetPredecoded(p *isa.Predecoded) {
	c.pre = p
	c.page0, c.pages = p.Table()
	c.planned = false
}

// Predecoded returns the installed decode cache, if any.
func (c *CPU) Predecoded() *isa.Predecoded { return c.pre }

// PowerOn returns the CPU to its freshly constructed state: registers
// and every counter (cycles, instructions, interrupts, the executor and
// skip counters and BlockExits) zeroed. Unlike Reset it models a power
// cycle, not the architectural reset sequence — the machine's Boot
// still performs that (and its 4-cycle latency) on top.
func (c *CPU) PowerOn() {
	c.R = [isa.NumRegs]uint16{}
	c.Cycles, c.Insns, c.Interrupts = 0, 0, 0
	c.PureInsns, c.GuardedInsns, c.SkippedInsns, c.SkippedCycles = 0, 0, 0, 0
	c.BlockExits = [NumBlockExits]uint64{}
	c.prevPC = 0
}

// staleAt reports whether the cached decode at pc (below 0xFFFB, as every
// cached pc is) may be stale: a page its fetch window pc..pc+5 touches
// is marked written, or the bus has no mask to tell.
func (c *CPU) staleAt(pc uint16) bool {
	w := c.written
	if w == nil {
		return true
	}
	p0, p1 := pc>>8, (pc+5)>>8
	return (w[p0>>6]>>(p0&63)|w[p1>>6]>>(p1&63))&1 != 0
}

// Flag reports whether the given status flag is set.
func (c *CPU) Flag(f uint16) bool { return c.R[isa.SR]&f != 0 }

// Off reports whether the CPU is in a low-power mode (CPUOFF set).
func (c *CPU) Off() bool { return c.Flag(isa.FlagCPUOff) }

// Reset performs the power-up/reset sequence: clear registers, load PC
// from the reset vector. The 4-cycle reset latency models the openMSP430
// reset-release to first-fetch delay.
func (c *CPU) Reset(resetVector uint16) {
	for i := range c.R {
		c.R[i] = 0
	}
	c.R[isa.PC] = c.bus.LoadWord(resetVector)
	c.prevPC = c.R[isa.PC]
	c.Cycles += 4
}

// --- bus helpers with watch notification -------------------------------

func (c *CPU) loadWord(pc, addr uint16) uint16 {
	if c.Watch != nil {
		c.Watch.OnRead(pc, addr, false)
	}
	if a := addr &^ 1; c.slab != nil && c.plain[a] {
		return uint16(c.slab[a]) | uint16(c.slab[a+1])<<8
	}
	c.busTouched = true
	return c.bus.LoadWord(addr)
}

func (c *CPU) storeWord(pc, addr, v uint16) {
	if c.Watch != nil {
		c.Watch.OnWrite(pc, addr, false, v)
	}
	if a := addr &^ 1; c.slab != nil && c.plain[a] {
		c.slab[a] = byte(v)
		c.slab[a+1] = byte(v >> 8)
		c.written[a>>14] |= 1 << (a >> 8 & 63)
		if a>>8 >= c.page0 {
			c.codeClean = false
		}
		return
	}
	c.busTouched = true
	c.bus.StoreWord(addr, v)
}

func (c *CPU) loadByte(pc, addr uint16) uint8 {
	if c.Watch != nil {
		c.Watch.OnRead(pc, addr, true)
	}
	if c.slab != nil && c.plain[addr] {
		return c.slab[addr]
	}
	c.busTouched = true
	return c.bus.LoadByte(addr)
}

func (c *CPU) storeByte(pc, addr uint16, v uint8) {
	if c.Watch != nil {
		c.Watch.OnWrite(pc, addr, true, uint16(v))
	}
	if c.slab != nil && c.plain[addr] {
		c.slab[addr] = v
		c.written[addr>>14] |= 1 << (addr >> 8 & 63)
		if addr>>8 >= c.page0 {
			c.codeClean = false
		}
		return
	}
	c.busTouched = true
	c.bus.StoreByte(addr, v)
}

// push stores v at --SP.
func (c *CPU) push(pc, v uint16) {
	c.R[isa.SP] -= 2
	c.storeWord(pc, c.R[isa.SP], v)
}

// --- interrupt service --------------------------------------------------

// serviceInterrupt performs the architectural interrupt sequence for the
// given line: push PC, push SR, clear SR (drops GIE and wakes CPUOFF),
// load PC from the vector.
func (c *CPU) serviceInterrupt(line int, vectorAddr uint16) {
	pc := c.R[isa.PC]
	if c.Watch != nil {
		c.Watch.OnInterrupt(pc, line)
	}
	c.push(pc, c.R[isa.PC])
	c.push(pc, c.R[isa.SR])
	c.R[isa.SR] = 0
	c.R[isa.PC] = c.loadWord(pc, vectorAddr)
	c.Cycles += isa.CyclesInterruptEntry
	c.Interrupts++
	if c.IRQ != nil {
		c.IRQ.Acknowledge(line)
	}
}

// VectorBase is the bottom of the interrupt vector table.
const VectorBase = 0xFFE0

// Step executes one instruction (or services one interrupt, or idles one
// cycle in a low-power mode) and returns the cycles consumed.
func (c *CPU) Step() (int, error) {
	start := c.Cycles

	// Interrupt acceptance happens between instructions when GIE is set.
	if c.IRQ != nil && c.Flag(isa.FlagGIE) {
		if line := c.IRQ.HighestPending(); line >= 0 {
			c.serviceInterrupt(line, VectorBase+uint16(line)*2)
			return int(c.Cycles - start), nil
		}
	}

	// Low-power mode: the core clock idles until an interrupt wakes it.
	if c.Off() {
		c.Cycles++
		return 1, nil
	}

	pc := c.R[isa.PC]
	if c.Watch != nil {
		c.Watch.OnFetch(c.prevPC, pc)
	}

	// Warm path: a cached decode that no write has touched, the first op
	// of the block starting at pc, skips the speculative fetch and the
	// decoder entirely; its threaded-code lowering additionally skips
	// the format switch and operand resolution.
	if p := int(pc>>8) - int(c.page0); pc&1 == 0 && uint(p) < uint(len(c.pages)) && c.pages[p] != nil {
		if ops := c.pages[p][pc>>1%isa.PageSlots].Ops; len(ops) != 0 && !c.staleAt(pc) {
			op := &ops[0]
			c.R[isa.PC] = op.Next
			c.prevPC = pc
			c.execUOp(pc, &op.U)
			c.Cycles += uint64(op.Cycles)
			c.Insns++
			return int(c.Cycles - start), nil
		}
	}

	// Fetch up to the maximum instruction length. Instruction fetches are
	// not reported through OnRead: the monitor sees them via OnFetch.
	words := [3]uint16{
		c.bus.LoadWord(pc),
		c.bus.LoadWord(pc + 2),
		c.bus.LoadWord(pc + 4),
	}
	in, _, err := isa.Decode(words[:])
	if err != nil {
		return 0, &ExecError{PC: pc, Err: err}
	}
	size := in.Size()
	c.R[isa.PC] = pc + size
	c.prevPC = pc

	if err := c.execute(pc, in); err != nil {
		return 0, &ExecError{PC: pc, Err: err}
	}
	c.Cycles += uint64(isa.Cycles(in))
	c.Insns++
	return int(c.Cycles - start), nil
}

// --- operand access -----------------------------------------------------

// operand location: either a register or a memory effective address.
type loc struct {
	isReg bool
	reg   isa.Reg
	ea    uint16
}

// resolve computes the location of an operand and performs any
// auto-increment side effect. pc is the instruction address; extAddr the
// address of the operand's extension word (for symbolic mode).
func (c *CPU) resolve(pc uint16, o isa.Operand, extAddr uint16, byteOp bool) loc {
	switch o.Mode {
	case isa.ModeRegister:
		return loc{isReg: true, reg: o.Reg}
	case isa.ModeIndexed:
		return loc{ea: c.R[o.Reg] + o.X}
	case isa.ModeSymbolic:
		return loc{ea: extAddr + o.X}
	case isa.ModeAbsolute:
		return loc{ea: o.X}
	case isa.ModeIndirect:
		return loc{ea: c.R[o.Reg]}
	case isa.ModeIndirectInc:
		// A byte op steps its register by one, but SP by two (POP.B
		// is mov.b @sp+, dst), so SP stays word-aligned.
		ea := c.R[o.Reg]
		step := uint16(2)
		if byteOp && o.Reg != isa.SP {
			step = 1
		}
		c.R[o.Reg] = ea + step
		return loc{ea: ea}
	}
	// Immediate has no location; callers special-case it.
	return loc{}
}

// readLoc reads the operand value at l.
func (c *CPU) readLoc(pc uint16, l loc, byteOp bool) uint16 {
	if l.isReg {
		v := c.R[l.reg]
		if l.reg == isa.PC {
			// Register-mode PC reads observe the incremented PC
			// (address after the opcode word), as on real silicon.
			v = pc + 2
		}
		if byteOp {
			v &= 0x00FF
		}
		return v
	}
	if byteOp {
		return uint16(c.loadByte(pc, l.ea))
	}
	return c.loadWord(pc, l.ea)
}

// writeLoc writes v to the operand location. Byte writes to registers
// clear the upper byte (architectural rule).
func (c *CPU) writeLoc(pc uint16, l loc, byteOp bool, v uint16) {
	if l.isReg {
		if byteOp {
			v &= 0x00FF
		}
		if l.reg == isa.SP {
			v &^= 1 // SP is word-aligned in hardware
		}
		c.R[l.reg] = v
		return
	}
	if byteOp {
		c.storeByte(pc, l.ea, uint8(v))
		return
	}
	c.storeWord(pc, l.ea, v)
}

// srcValue evaluates the source operand (handling immediates) and returns
// its value.
func (c *CPU) srcValue(pc uint16, in isa.Instruction) uint16 {
	if in.Src.Mode == isa.ModeImmediate {
		v := in.Src.X
		if in.Byte {
			v &= 0x00FF
		}
		return v
	}
	return c.readLoc(pc, c.srcLoc(pc, in), in.Byte)
}

// srcLoc resolves a non-immediate source operand location.
func (c *CPU) srcLoc(pc uint16, in isa.Instruction) loc {
	srcOff, srcHas, _, _ := in.ExtOffsets()
	extAddr := pc
	if srcHas {
		extAddr = pc + uint16(srcOff)
	}
	return c.resolve(pc, in.Src, extAddr, in.Byte)
}

// dstLoc resolves the destination operand location.
func (c *CPU) dstLoc(pc uint16, in isa.Instruction) loc {
	_, _, dstOff, dstHas := in.ExtOffsets()
	extAddr := pc
	if dstHas {
		extAddr = pc + uint16(dstOff)
	}
	return c.resolve(pc, in.Dst, extAddr, in.Byte)
}

// --- flag computation ---------------------------------------------------

func (c *CPU) setFlags(set, clear uint16) {
	c.R[isa.SR] = c.R[isa.SR]&^clear | set
}

// nz computes N and Z for a result of the operation width.
func nz(r uint16, byteOp bool) uint16 {
	var f uint16
	mask, sign := width(byteOp)
	if r&mask == 0 {
		f |= isa.FlagZ
	}
	if r&sign != 0 {
		f |= isa.FlagN
	}
	return f
}

func width(byteOp bool) (mask, sign uint16) {
	if byteOp {
		return 0x00FF, 0x0080
	}
	return 0xFFFF, 0x8000
}

// addFlags computes C,Z,N,V for dst+src+carryIn at the given width, and
// the result.
func addFlags(src, dst uint16, carryIn uint16, byteOp bool) (r uint16, f uint16) {
	if !byteOp {
		return addFlagsW(src, dst, carryIn)
	}
	mask, sign := width(byteOp)
	src &= mask
	dst &= mask
	full := uint32(src) + uint32(dst) + uint32(carryIn)
	r = uint16(full) & mask
	f = nz(r, byteOp)
	if full > uint32(mask) {
		f |= isa.FlagC
	}
	if (src&sign) == (dst&sign) && (r&sign) != (src&sign) {
		f |= isa.FlagV
	}
	return r, f
}

// addFlagsW is addFlags specialized to word width with branchless flag
// assembly — the shape the register-destination hot path executes. Bit
// positions: C=1<<0 (carry out of bit 15), Z=1<<1, N=1<<2 (bit 15
// shifted down), V=1<<8 (equal operand signs, differing result sign).
func addFlagsW(src, dst, carryIn uint16) (r uint16, f uint16) {
	full := uint32(src) + uint32(dst) + uint32(carryIn)
	r = uint16(full)
	f = uint16(full>>16) |
		uint16((uint32(r)-1)>>31)<<1 |
		r>>13&isa.FlagN |
		(^(src^dst)&(src^r))>>7&isa.FlagV
	return r, f
}

// nzW is nz specialized to word width, branchless.
func nzW(r uint16) uint16 {
	return uint16((uint32(r)-1)>>31)<<1 | r>>13&isa.FlagN
}

// dadd performs one BCD addition at the given width.
func dadd(src, dst uint16, carryIn uint16, byteOp bool) (r uint16, f uint16) {
	digits := 4
	if byteOp {
		digits = 2
	}
	carry := carryIn
	var out uint16
	for i := 0; i < digits; i++ {
		d := (src>>(4*i))&0xF + (dst>>(4*i))&0xF + carry
		carry = 0
		if d > 9 {
			d -= 10
			carry = 1
		}
		out |= d << (4 * i)
	}
	f = nz(out, byteOp)
	if carry != 0 {
		f |= isa.FlagC
	}
	return out, f
}

// --- execution ----------------------------------------------------------

// allFlags is the set of arithmetic flags instructions may update.
const allFlags = isa.FlagC | isa.FlagZ | isa.FlagN | isa.FlagV

// execute runs a live-decoded instruction on the generic interpreter,
// which resolves its operands from the decoded addressing modes. Its only
// fault is execFormat2's immediate operand on an in-place op.
func (c *CPU) execute(pc uint16, in isa.Instruction) error {
	switch {
	case in.Op.IsJump():
		if c.jumpTaken(in.Op) {
			c.R[isa.PC] = pc + 2 + 2*uint16(in.JumpOffset)
		}
	case in.Op == isa.RETI:
		c.reti(pc)
	case in.Op.IsOneOperand():
		return c.execFormat2(pc, in)
	default:
		src := c.srcValue(pc, in)
		c.doFormat1(pc, in.Op, in.Byte, src, c.dstLoc(pc, in))
	}
	return nil
}

// reti returns from an interrupt: SR is popped first, then PC.
func (c *CPU) reti(pc uint16) {
	sp := c.R[isa.SP]
	c.R[isa.SR] = c.loadWord(pc, sp)
	c.R[isa.PC] = c.loadWord(pc, sp+2)
	c.R[isa.SP] = sp + 4
}

// jumpTaken evaluates a format III condition against the status register.
func (c *CPU) jumpTaken(op isa.Opcode) bool {
	sr := c.R[isa.SR]
	cf, zf, nf, vf := sr&isa.FlagC != 0, sr&isa.FlagZ != 0, sr&isa.FlagN != 0, sr&isa.FlagV != 0
	switch op {
	case isa.JNE:
		return !zf
	case isa.JEQ:
		return zf
	case isa.JNC:
		return !cf
	case isa.JC:
		return cf
	case isa.JN:
		return nf
	case isa.JGE:
		return nf == vf
	case isa.JL:
		return nf != vf
	}
	return true // JMP
}

func (c *CPU) execFormat2(pc uint16, in isa.Instruction) error {
	if in.Src.Mode != isa.ModeImmediate {
		l := c.srcLoc(pc, in)
		c.doFormat2(pc, in.Op, in.Byte, l, c.readLoc(pc, l, in.Byte))
		return nil
	}
	// Only PUSH and CALL read an immediate; the others write their
	// operand in place.
	if in.Op != isa.PUSH && in.Op != isa.CALL {
		return fmt.Errorf("immediate operand for %v", in.Op)
	}
	c.doFormat2(pc, in.Op, in.Byte, loc{}, c.srcValue(pc, in))
	return nil
}

// doFormat2 executes a single-operand instruction given its operand's
// location and the value read from it (for a PUSH or CALL immediate,
// the value alone) — the one body of each format II op, shared by the
// generic interpreter and the threaded-code path.
func (c *CPU) doFormat2(pc uint16, op isa.Opcode, byteOp bool, l loc, v uint16) {
	_, sign := width(byteOp)

	switch op {
	case isa.RRC:
		carryIn := uint16(0)
		if c.Flag(isa.FlagC) {
			carryIn = sign
		}
		r := v>>1 | carryIn
		f := nz(r, byteOp)
		if v&1 != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.RRA:
		r := v>>1 | v&sign
		f := nz(r, byteOp)
		if v&1 != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SWPB:
		c.writeLoc(pc, l, false, v>>8|v<<8)
	case isa.SXT:
		r := v & 0x00FF
		if r&0x0080 != 0 {
			r |= 0xFF00
		}
		f := nz(r, false)
		if r != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, l, false, r)
		c.setFlags(f, allFlags)
	case isa.PUSH:
		if byteOp {
			c.R[isa.SP] -= 2
			c.storeByte(pc, c.R[isa.SP], uint8(v))
		} else {
			c.push(pc, v)
		}
	case isa.CALL:
		c.push(pc, c.R[isa.PC]) // return address: next instruction
		c.R[isa.PC] = v
	}
}

// doFormat1 executes a double-operand instruction given the evaluated
// source and the resolved destination — the tail shared by the generic
// interpreter and the threaded-code path.
func (c *CPU) doFormat1(pc uint16, op isa.Opcode, byteOp bool, src uint16, dl loc) {
	// MOV/BIC/BIS don't need the old destination value for flags, but
	// BIC/BIS need it for the operation itself.
	var dst uint16
	if op != isa.MOV {
		dst = c.readLoc(pc, dl, byteOp)
	}
	mask, sign := width(byteOp)
	carry := uint16(0)
	if c.Flag(isa.FlagC) {
		carry = 1
	}

	switch op {
	case isa.MOV:
		c.writeLoc(pc, dl, byteOp, src)
	case isa.ADD:
		r, f := addFlags(src, dst, 0, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.ADDC:
		r, f := addFlags(src, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SUB:
		r, f := addFlags(^src&mask, dst, 1, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.SUBC:
		r, f := addFlags(^src&mask, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.CMP:
		_, f := addFlags(^src&mask, dst, 1, byteOp)
		c.setFlags(f, allFlags)
	case isa.DADD:
		// V is architecturally undefined after DADD; we clear it.
		r, f := dadd(src, dst, carry, byteOp)
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.BIT:
		r := src & dst & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		c.setFlags(f, allFlags)
	case isa.BIC:
		c.writeLoc(pc, dl, byteOp, dst&^src)
	case isa.BIS:
		c.writeLoc(pc, dl, byteOp, dst|src)
	case isa.XOR:
		r := (src ^ dst) & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		if src&sign != 0 && dst&sign != 0 {
			f |= isa.FlagV
		}
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	case isa.AND:
		r := src & dst & mask
		f := nz(r, byteOp)
		if r != 0 {
			f |= isa.FlagC
		}
		c.writeLoc(pc, dl, byteOp, r)
		c.setFlags(f, allFlags)
	}
}

// --- threaded-code execution --------------------------------------------

// execUOp executes one predecoded micro-op. The operand shapes were
// lowered at predecode time (isa.LowerUOp), so no format switch,
// extension-word arithmetic or addressing-mode resolution happens here;
// the op bodies and every bus/watcher interaction are shared with the
// generic interpreter, keeping the two paths bit-identical. Lowering
// refuses the one shape that faults (an immediate operand on an
// in-place format II op), so no micro-op can fail.
func (c *CPU) execUOp(pc uint16, u *isa.UOp) {
	switch u.Class {
	case isa.UFmt1Reg:
		c.execFmt1Reg(u, c.uSrc(pc, u))
	case isa.UJump:
		if c.jumpTaken(u.Op) {
			c.R[isa.PC] = u.Target
		}
	case isa.UReti:
		c.reti(pc)
	case isa.UFmt2:
		// A constant source is a PUSH or CALL immediate (or their
		// folded PC read), which has no location.
		var l loc
		v := u.SrcVal
		if u.SrcK != isa.SrcConst {
			l = c.uLoc(u.SrcK, u.SrcReg, u.SrcVal, u.Inc)
			v = c.readLoc(pc, l, u.Byte)
		}
		c.doFormat2(pc, u.Op, u.Byte, l, v)
	default: // UFmt1
		src := c.uSrc(pc, u)
		var dl loc
		switch u.DstK {
		case isa.DstRegK:
			dl = loc{isReg: true, reg: u.DstReg}
		case isa.DstMemConst:
			dl = loc{ea: u.DstVal}
		default: // DstMemReg
			dl = loc{ea: c.R[u.DstReg] + u.DstVal}
		}
		c.doFormat1(pc, u.Op, u.Byte, src, dl)
	}
}

// uSrc evaluates a lowered source operand, performing any
// auto-increment side effect.
func (c *CPU) uSrc(pc uint16, u *isa.UOp) uint16 {
	switch u.SrcK {
	case isa.SrcConst:
		return u.SrcVal // pre-masked at lowering time
	case isa.SrcReg:
		v := c.R[u.SrcReg]
		if u.Byte {
			v &= 0x00FF
		}
		return v
	case isa.SrcMemConst:
		if u.Byte {
			return uint16(c.loadByte(pc, u.SrcVal))
		}
		return c.loadWord(pc, u.SrcVal)
	case isa.SrcMemReg:
		ea := c.R[u.SrcReg] + u.SrcVal
		if u.Byte {
			return uint16(c.loadByte(pc, ea))
		}
		return c.loadWord(pc, ea)
	default: // SrcMemRegInc
		ea := c.R[u.SrcReg]
		c.R[u.SrcReg] = ea + u.Inc
		if u.Byte {
			return uint16(c.loadByte(pc, ea))
		}
		return c.loadWord(pc, ea)
	}
}

// uLoc resolves a lowered source operand to a location (format II
// in-place ops), performing any auto-increment side effect.
func (c *CPU) uLoc(kind uint8, reg isa.Reg, val, inc uint16) loc {
	switch kind {
	case isa.SrcReg:
		return loc{isReg: true, reg: reg}
	case isa.SrcMemConst:
		return loc{ea: val}
	case isa.SrcMemReg:
		return loc{ea: c.R[reg] + val}
	default: // SrcMemRegInc
		ea := c.R[reg]
		c.R[reg] = ea + inc
		return loc{ea: ea}
	}
}

// --- basic-block execution ---------------------------------------------

// staleRange reports whether any page from p0 through p1 is marked
// written, or the bus has no mask to tell: the block-granular form of
// staleAt, over the pages an isa.Block's W0 and W1 bound.
func (c *CPU) staleRange(p0, p1 uint16) bool {
	w := c.written
	if w == nil {
		return true
	}
	i0, i1 := p0>>6, p1>>6
	lo := ^uint64(0) << (p0 & 63)
	hi := ^uint64(0) >> (63 - p1&63)
	if i0 == i1 {
		return w[i0]&lo&hi != 0
	}
	if w[i0]&lo != 0 {
		return true
	}
	for i := i0 + 1; i < i1; i++ {
		if w[i] != 0 {
			return true
		}
	}
	return w[i1]&hi != 0
}

// RunBlocks executes whole predecoded basic blocks back to back while
// the next block's precomputed cycle total fits under limit, servicing
// nothing in between: the machine loop guarantees no peripheral acts
// before limit, and every way the world can change mid-block hands
// control back here bit-exactly —
//
//   - an op whose bus access leaves plain RAM (peripheral register,
//     unmapped space) ends its block after that op, so halts, handler
//     catch-up and newly raised interrupts are observed exactly where
//     per-instruction dispatch would observe them. The exception is an
//     op whose every access is at a constant address and either stays
//     in plain RAM or is a load the bus's LoadFilter calls quiet
//     (bit #1,&USTAT; mov &ADCMEM,r12): it changes nothing a later op
//     or the machine loop could observe, so its block runs on;
//   - a write landing in a page the block's fetch windows touch
//     (self-modifying code) ends the block before the next op
//     re-fetches, via the same written-page mask that guards the
//     decodes Step runs. Admission and the check after each op read
//     the mask only once codeClean is false, which a direct store into
//     the cache window's pages makes it;
//   - with GIE set the pending-interrupt poll runs at every block
//     entry. Inside a block no request can become pending (see
//     IRQSource), so the poll is repeated only before an op where an
//     IRQGate's mask flips; a pure block with no flip runs on the pure
//     path with GIE set, self-loops included;
//   - stop, when non-nil, is the machine's monitor-violation check. It
//     is polled after every op that delivered a watcher callback, and
//     true ends execution there;
//   - a spin block (see plan) whose guarded run left all sixteen
//     registers as it found them will repeat that run exactly until
//     something outside it acts: it stores nothing, and each value it
//     loads holds still until the next peripheral event, which limit
//     stands for. So the whole iterations that still fit under limit
//     are retired in one step, counted in SkippedInsns and
//     SkippedCycles, and the next admission ends with ExitLimit as it
//     would have after running them. Their entry fetches and reads are
//     not delivered; the plan marks a spin block only where the watcher
//     calls every one of them quiet;
//   - a countdown block (isa.Block.Countdown, `dec Rn; jnz` to itself)
//     admitted to the pure path would re-run in place until its counter
//     reaches zero or the next trip no longer fits under limit. Its end
//     depends on the counter alone, so on entry all but the last of
//     those iterations are retired in closed form (see countdown),
//     counted in PureInsns, and the last one runs through the op
//     bodies. The plain in-place loop delivers nothing between trips
//     either, so callbacks, interrupt polls and exits do not change.
//
// A watcher hears every block's entry fetch and every data access. It
// hears the other fetches too unless it is a FetchFilter: then only the
// fetches its QuietFetch does not call quiet, and those where the IRQ
// gate flips, are delivered, and a pure block that needs none but its
// entry fetch runs on the unguarded pure path, as it does with no
// watcher. If that entry fetch trips, op 0 alone retires, as it would
// per instruction.
//
// A block whose pages are marked in the bus's written-page mask is
// stale and never entered (ExitStale), so the caller's Step decodes its
// code live. Each call rebuilds codeClean from the mask on entry, so a
// write made off the CPU between calls (a harness poke, LoadImage,
// Space.Reset) stales exactly what it would stale for Step.
//
// brk, when non-zero, is an address the PC must reach only at a return
// from here: a block that starts at it, or holds it after its first op,
// is not entered (ExitOther), so the caller can step up to it one
// instruction at a time. A block is straight-line code, so the PC takes
// the address of each of its ops and of no other instruction; a block
// without brk among them cannot pass it, and a jump to brk ends its
// block and is seen at the next entry. 0 means none: address 0 is a
// special-function register, not code.
//
// Interrupt service, low-power idling and non-fused instructions are
// never handled here; the caller falls back to Step. Nothing a block
// runs can fault (see ExecError). Every return counts one BlockExits
// reason. executed reports whether at least one instruction ran, and
// lastPre is the cycle count before the last one that ran: the anchor
// to which the machine syncs its peripherals when a violation ends the
// call.
func (c *CPU) RunBlocks(limit uint64, stop func() bool, brk uint16) (executed bool, lastPre uint64) {
	if c.pages == nil {
		c.BlockExits[ExitOther]++
		return false, 0
	}
	if !c.planned || c.Watch != c.planWatch || c.IRQ != c.planIRQ {
		c.plan()
	}
	c.codeClean = !c.staleRange(c.page0, 0xFF)
	for {
		sr := c.R[isa.SR]
		if sr&isa.FlagCPUOff != 0 {
			c.BlockExits[ExitOther]++
			return
		}
		gie := c.IRQ != nil && sr&isa.FlagGIE != 0
		if gie && c.IRQ.HighestPending() >= 0 {
			c.BlockExits[ExitIRQ]++
			return
		}
		pc := c.R[isa.PC]
		p := int(pc>>8) - int(c.page0)
		if pc&1 != 0 || uint(p) >= uint(len(c.pages)) || c.pages[p] == nil {
			c.BlockExits[ExitOther]++
			return
		}
		b := &c.pages[p][pc>>1%isa.PageSlots]
		ops := b.Ops
		if len(ops) == 0 || brk != 0 && brk-pc <= ops[len(ops)-1].PC-pc {
			c.BlockExits[ExitOther]++
			return
		}
		i := c.slot(pc)
		// Admission: entry + total <= limit implies every op starts
		// strictly below limit, exactly the per-instruction rule.
		if c.Cycles+uint64(b.Cycles) > limit {
			c.BlockExits[ExitLimit]++
			return
		}
		if !c.codeClean && c.staleRange(b.W0, b.W1) {
			c.BlockExits[ExitStale]++
			return
		}

		if c.Watch != nil {
			// Every block's entry fetch is delivered here. When it
			// trips on an admitted block, the guarded loop below
			// retires op 0 alone.
			lastPre = c.Cycles
			c.Watch.OnFetch(c.prevPC, pc)
		}
		if c.admit[i>>6]&(1<<(i&63)) != 0 && (c.Watch == nil || stop == nil || !stop()) {
			// Pure blocks touch no memory: nothing observes PC, cycles,
			// SR or prevPC mid-block, so account in bulk, elide dead
			// flag results, and execute the hot op shapes inline. No
			// pure op reads c.R[PC] (register-mode PC reads were folded
			// at predecode time), so the PC needs writing once, before
			// the final op executes. A block whose terminating jump
			// lands back on its own first op re-runs in place: pure ops
			// cannot change SR system bits, pending requests or code
			// memory, and an admitted block's back edge is quiet and
			// keeps the gate's mask, so only the deadline admission
			// needs re-checking per trip.
			n := len(ops)
			if b.Countdown {
				c.countdown(b, limit)
			}
			for {
				c.R[isa.PC] = ops[n-1].Next
				for k := range ops {
					op := &ops[k]
					u := &op.U
					switch u.Class {
					case isa.UFmt1Reg:
						src := u.SrcVal
						if u.SrcK == isa.SrcReg {
							src = c.R[u.SrcReg]
						}
						if op.Flags {
							c.execFmt1Reg(u, src)
						} else {
							// The hottest dead-flag ops inline; the
							// rest share the out-of-line twin.
							switch u.Op {
							case isa.MOV:
								c.R[u.DstReg] = src
							case isa.ADD:
								c.R[u.DstReg] += src
							case isa.SUB:
								c.R[u.DstReg] -= src
							case isa.XOR:
								c.R[u.DstReg] ^= src
							case isa.AND:
								c.R[u.DstReg] &= src
							case isa.BIS:
								c.R[u.DstReg] |= src
							case isa.BIC:
								c.R[u.DstReg] &^= src
							default:
								c.fmt1RegDeadFlags(u, src)
							}
						}
					case isa.UJump:
						if c.jumpTaken(u.Op) {
							c.R[isa.PC] = u.Target
						}
					default:
						c.execUOp(op.PC, u)
					}
				}
				c.Cycles += uint64(b.Cycles)
				c.Insns += uint64(n)
				c.PureInsns += uint64(n)
				executed = true
				if c.R[isa.PC] != pc || c.Cycles+uint64(b.Cycles) > limit {
					break
				}
			}
			c.prevPC = ops[n-1].PC
			continue
		}

		c.busTouched = false
		observe := gie || c.Watch != nil
		spin := c.spin[i>>6]&(1<<(i&63)) != 0
		var r0 [isa.NumRegs]uint16
		if spin {
			r0 = c.R
		}
		for k := range ops {
			op := &ops[k]
			// At a loud arrival the gate's mask may flip, so the
			// interrupt poll Step makes before every instruction is
			// repeated, and the watcher may need the fetch.
			loud := k > 0 && observe && c.bitAt(c.loud, op.PC)
			if loud && gie && c.IRQ.HighestPending() >= 0 {
				c.BlockExits[ExitIRQ]++
				return
			}
			lastPre = c.Cycles
			// heard: the op delivered a callback (the entry fetch, a
			// loud fetch or a data access), so the violation poll
			// follows it.
			heard := false
			if c.Watch != nil {
				heard = k == 0 || op.Mem
				if loud {
					c.Watch.OnFetch(c.prevPC, op.PC)
					heard = true
				}
			}
			c.R[isa.PC] = op.Next
			c.prevPC = op.PC
			c.execUOp(op.PC, &op.U)
			c.Cycles += uint64(op.Cycles)
			c.Insns++
			c.GuardedInsns++
			executed = true
			if c.busTouched {
				if !c.bitAt(c.quiet, op.PC) {
					c.BlockExits[ExitBus]++
					return
				}
				c.busTouched = false
			}
			if !c.codeClean && c.staleRange(b.W0, b.W1) {
				c.BlockExits[ExitStale]++
				return
			}
			if heard && stop != nil && stop() {
				c.BlockExits[ExitStop]++
				return
			}
		}
		if spin && c.R == r0 {
			n := (limit - c.Cycles) / uint64(b.Cycles)
			c.Cycles += n * uint64(b.Cycles)
			c.SkippedCycles += n * uint64(b.Cycles)
			c.Insns += n * uint64(len(ops))
			c.SkippedInsns += n * uint64(len(ops))
		}
	}
}

// countdown retires in closed form all but the last of the iterations
// the pure path's in-place loop would run of b, a Countdown block
// admitted at c.Cycles: t = min(counter, ⌊(limit − Cycles) / b.Cycles⌋),
// where a zero counter means 65,536 iterations. Admission guarantees
// t ≥ 1. Only the counter, Cycles, Insns and PureInsns change; the
// in-place loop then runs the last iteration for real, so SR and PC
// come out of the op bodies and the loop ends as it would have.
//
// It runs once per block entry and stays out of line: inlined, it
// changed which values RunBlocks keeps in registers across the
// in-place loop that every pure self-loop runs, while out of line that
// loop compiles to the same instructions as without it.
//
//go:noinline
func (c *CPU) countdown(b *isa.Block, limit uint64) {
	r := &c.R[b.Ops[0].U.DstReg]
	t := uint64(*r)
	if t == 0 {
		t = 1 << 16
	}
	if fit := (limit - c.Cycles) / uint64(b.Cycles); fit < t {
		t = fit
	}
	t--
	*r -= uint16(t)
	c.Cycles += t * uint64(b.Cycles)
	c.Insns += 2 * t
	c.PureInsns += 2 * t
}

// slot returns the index of the fetch address pc, which lies in the
// decode cache's window, in the plan's bitsets: the window's even
// addresses in order, isa.PageSlots to a page.
func (c *CPU) slot(pc uint16) int { return (int(pc) - int(c.page0)<<8) >> 1 }

// bitAt reports the plan bit of the slot of pc.
func (c *CPU) bitAt(set []uint64, pc uint16) bool {
	i := c.slot(pc)
	return set[i>>6]&(1<<(i&63)) != 0
}

// plan derives the block plan for the installed decode cache from the
// current watcher, interrupt source and bus, as four bitsets over the
// slots of the table's window (~2 KB for the 8 KiB code window):
//
//   - loud marks each slot whose op, arriving from its predecessor in
//     the fused run, needs observing: the watcher is not a FetchFilter
//     or its QuietFetch does not call the step quiet (the fetch is
//     delivered), or the IRQ source is an IRQGate whose mask differs
//     at the two PCs (the interrupt poll is repeated);
//   - admit marks each pure block with no loud arrival after its entry
//     whose back edge, when it jumps to its own entry, is quiet too:
//     those run on the pure path (none do under a watcher without
//     FetchFilter);
//   - quiet marks each slot whose op makes data accesses at constant
//     addresses only, each to plain RAM or a load the bus's LoadFilter
//     calls quiet, so touching the bus there does not end the block;
//   - spin marks each non-pure block whose jump lands back on its own
//     entry, whose arrivals and back edge are all quiet, and whose every
//     data access is a quiet load at a constant address that repeats
//     its value (see stillAccesses): RunBlocks may retire its repeats
//     without running them.
//
// A fused op has one predecessor (every address belongs to one run), so
// one predicate call per op pair covers every block. Pairs whose code a
// write has staled count as loud, so the predicates only ever judge the
// code image the table was fused from.
func (c *CPU) plan() {
	c.planned, c.planWatch, c.planIRQ = true, c.Watch, c.IRQ
	n := len(c.pages) * isa.PageSlots >> 6
	c.loud, c.admit, c.quiet, c.spin = make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	f, filtered := c.Watch.(FetchFilter)
	reads, _ := c.Watch.(ReadFilter)
	gate, gated := c.IRQ.(IRQGate)
	loads, _ := c.bus.(LoadFilter)
	quietStep := func(prev, pc uint16) bool {
		switch {
		case c.staleAt(prev) || c.staleAt(pc):
			return false
		case gated && gate.Masked(prev) != gate.Masked(pc):
			return false
		case c.Watch == nil:
			return true
		}
		return filtered && f.QuietFetch(prev, pc)
	}
	// A watcher without FetchFilter hears every fetch, so it keeps every
	// block off the pure path.
	admits := c.Watch == nil || filtered
	set := func(bits []uint64, i int) { bits[i>>6] |= 1 << (i & 63) }
	// A block's tail is the block at its second op, which sits higher
	// in the table, so a downward walk finds the tail's admit bit
	// already holding "every arrival after the entry is quiet".
	for i := len(c.pages)*isa.PageSlots - 1; i >= 0; i-- {
		pg := c.pages[i/isa.PageSlots]
		if pg == nil {
			continue
		}
		ops := pg[i%isa.PageSlots].Ops
		if ops == nil {
			continue
		}
		if ops[0].Mem && c.quietAccesses(&ops[0].U, loads) {
			set(c.quiet, i)
		}
		if len(ops) > 1 {
			j := c.slot(ops[1].PC)
			if !quietStep(ops[0].PC, ops[1].PC) {
				set(c.loud, j)
				continue
			}
			if c.admit[j>>6]&(1<<(j&63)) == 0 {
				continue
			}
		}
		set(c.admit, i)
	}
	// Here admit still holds "every arrival after the entry is quiet",
	// the first condition of both the pure path and a spin, and only
	// slots holding a block have it.
	for i := range len(c.pages) * isa.PageSlots {
		if c.admit[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		b := &c.pages[i/isa.PageSlots][i%isa.PageSlots]
		last := &b.Ops[len(b.Ops)-1]
		selfLoop := last.U.Class == isa.UJump && last.U.Target == b.Ops[0].PC
		quietLoop := selfLoop && quietStep(last.PC, b.Ops[0].PC)
		if !b.Pure && quietLoop && c.stillOps(b.Ops, loads, reads) {
			set(c.spin, i)
		}
		if !b.Pure || !admits || selfLoop && !quietLoop {
			c.admit[i>>6] &^= 1 << (i & 63)
		}
	}
}

// stillOps reports whether every op of ops that touches memory is
// quiet (see plan) and passes stillAccesses.
func (c *CPU) stillOps(ops []isa.BlockOp, loads LoadFilter, reads ReadFilter) bool {
	for k := range ops {
		op := &ops[k]
		if op.Mem && (!c.bitAt(c.quiet, op.PC) || !c.stillAccesses(op.PC, &op.U, loads, reads)) {
			return false
		}
	}
	return true
}

// stillAccesses reports whether u, an op quietAccesses accepts, stores
// nothing and loads only values that repeat until the next peripheral
// event: from plain RAM, which nothing else writes inside a run, or
// from a register loads says holds still. Under a watcher each read
// must also be one its QuietRead calls quiet (none are without the
// method).
func (c *CPU) stillAccesses(pc uint16, u *isa.UOp, loads LoadFilter, reads ReadFilter) bool {
	still := func(a uint16) bool {
		if c.Watch != nil && (reads == nil || !reads.QuietRead(pc, a)) {
			return false
		}
		return c.plainAt(a, u.Byte) || loads.HoldsStill(a, u.Byte)
	}
	if u.SrcK == isa.SrcMemConst && !still(u.SrcVal) {
		return false
	}
	// CMP and BIT only read their destination; every other op on a
	// memory destination stores to it.
	return u.DstK == isa.DstRegK || (u.Op == isa.CMP || u.Op == isa.BIT) && still(u.DstVal)
}

// quietAccesses reports whether every data access u makes is at a
// constant address and stays in plain RAM or, for a load, is one loads
// calls quiet. Ops with a register-addressed operand, stack accesses or
// in-place read-modify-writes never qualify.
func (c *CPU) quietAccesses(u *isa.UOp, loads LoadFilter) bool {
	if loads == nil || c.plain == nil || u.Class != isa.UFmt1 && u.Class != isa.UFmt1Reg {
		return false
	}
	plain := func(a uint16) bool { return c.plainAt(a, u.Byte) }
	load := func(a uint16) bool { return plain(a) || loads.QuietLoad(a, u.Byte) }
	switch u.SrcK {
	case isa.SrcConst, isa.SrcReg:
	case isa.SrcMemConst:
		if !load(u.SrcVal) {
			return false
		}
	default:
		return false
	}
	switch u.DstK {
	case isa.DstRegK:
		return true
	case isa.DstMemConst:
		d := u.DstVal
		if u.Op != isa.MOV && !load(d) {
			return false
		}
		// CMP and BIT only read their destination.
		return u.Op == isa.CMP || u.Op == isa.BIT || plain(d)
	}
	return false
}

// plainAt reports whether an access at a (to the aligned word unless
// byteWide) stays in plain RAM.
func (c *CPU) plainAt(a uint16, byteWide bool) bool {
	if !byteWide {
		a &^= 1
	}
	return c.plain[a]
}

// fmt1RegDeadFlags executes the register-destination micro-ops the
// pure block loop does not inline — the carry-consuming and flag-only
// shapes — when their flag results were proven dead within the block:
// the register effects of execFmt1Reg without the SR computation.
func (c *CPU) fmt1RegDeadFlags(u *isa.UOp, src uint16) {
	d := &c.R[u.DstReg]
	switch u.Op {
	case isa.ADDC:
		*d += src + c.R[isa.SR]&isa.FlagC
	case isa.SUBC:
		*d += ^src + c.R[isa.SR]&isa.FlagC
	case isa.DADD:
		r, _ := dadd(src, *d, c.R[isa.SR]&isa.FlagC, false)
		*d = r
	case isa.CMP, isa.BIT:
		// Flag-only ops whose flags are dead: no architectural effect.
	}
}

// execFmt1Reg executes a word-width double-operand micro-op whose
// destination is a plain general-purpose register (R4..R15) with the
// location indirection stripped and the source already evaluated. The
// op semantics mirror doFormat1 for word width exactly (mask 0xFFFF,
// sign 0x8000).
func (c *CPU) execFmt1Reg(u *isa.UOp, src uint16) {
	d := &c.R[u.DstReg]
	dst := *d
	carry := c.R[isa.SR] & isa.FlagC // 0 or 1: FlagC is bit 0
	switch u.Op {
	case isa.MOV:
		*d = src
	case isa.ADD:
		r, f := addFlagsW(src, dst, 0)
		*d = r
		c.setFlags(f, allFlags)
	case isa.ADDC:
		r, f := addFlagsW(src, dst, carry)
		*d = r
		c.setFlags(f, allFlags)
	case isa.SUB:
		r, f := addFlagsW(^src, dst, 1)
		*d = r
		c.setFlags(f, allFlags)
	case isa.SUBC:
		r, f := addFlagsW(^src, dst, carry)
		*d = r
		c.setFlags(f, allFlags)
	case isa.CMP:
		_, f := addFlagsW(^src, dst, 1)
		c.setFlags(f, allFlags)
	case isa.DADD:
		r, f := dadd(src, dst, carry, false)
		*d = r
		c.setFlags(f, allFlags)
	case isa.BIT:
		r := src & dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		c.setFlags(f, allFlags)
	case isa.BIC:
		*d = dst &^ src
	case isa.BIS:
		*d = dst | src
	case isa.XOR:
		r := src ^ dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		if src&0x8000 != 0 && dst&0x8000 != 0 {
			f |= isa.FlagV
		}
		*d = r
		c.setFlags(f, allFlags)
	case isa.AND:
		r := src & dst
		f := nzW(r)
		if r != 0 {
			f |= isa.FlagC
		}
		*d = r
		c.setFlags(f, allFlags)
	}
}
