package casu

// Defense is the pluggable hardware-monitor contract every defense
// variant implements. A Defense is constructed per machine, wired to the
// CPU's architectural taps (it satisfies cpu.Watcher structurally), and
// drives the machine's reset-on-violation rule through Violation. The
// CASU/EILID Monitor is the reference implementation; ShadowStack (CFI
// CaRE-style interrupt-aware call/return matching) and CritVar
// (OAT-style critical-variable attestation) are peers, so the fleet can
// run the same attack matrix against any column of defenses.
//
// Contract notes for implementers:
//
//   - All observation methods are called synchronously from the CPU.
//     OnRead, OnWrite and OnInterrupt fire for every access and every
//     accepted interrupt. OnFetch fires for every instruction executed
//     by per-instruction dispatch (cpu.Step), and for every block entry
//     under block execution. Inside a fused block, a fetch from prev to
//     pc may be skipped when QuietFetch(prev, pc) holds.
//   - QuietFetch is static: a function of the two addresses, the
//     defense's configuration and the code image, never of run-time
//     state. It may return true only when OnFetch for that straight-line
//     step can neither trip nor change state that a later callback or
//     Violation reads. Returning false is always safe. A defense may
//     rely on one invariant here: inside a block, memory changes only
//     through CPU stores that OnWrite reports. Off-bus writes (the
//     harness's arbitrary-write primitive) land only between CPU runs,
//     so the first fetch after one is always delivered.
//   - QuietRead is the read-side twin, with the same static contract:
//     it may return true only when OnRead(pc, addr, ·) can neither trip
//     nor change state that a later callback or Violation reads. Block
//     execution still delivers every read of an instruction it runs; it
//     uses QuietRead to retire the repeats of a status poll without
//     running them (see cpu.RunBlocks), whose reads and entry fetches
//     are then never delivered.
//   - The machine polls Violation after every instruction that
//     delivered a callback, so a violation raised in
//     OnFetch/OnRead/OnWrite/OnInterrupt is observed cycle-exactly:
//     block execution and per-instruction execution reset at identical
//     points.
//   - Violation returns the first breach since the last Clear; later
//     breaches change nothing.
//   - Clear is the one reset: the monitor returns to its freshly
//     constructed state. The machine calls it on every device reset
//     (Machine.Boot) and on every recycle (Machine.Recycle), which runs
//     per job in a few µs, so implementations must not allocate on this
//     path.
type Defense interface {
	// OnFetch fires before the instruction at pc executes; prev is the
	// previously executed instruction.
	OnFetch(prev, pc uint16)
	// OnRead fires for each data-bus read issued by the instruction at pc.
	OnRead(pc, addr uint16, byteWide bool)
	// OnWrite fires for each data-bus write issued by the instruction at pc.
	OnWrite(pc, addr uint16, byteWide bool, value uint16)
	// OnInterrupt fires when an interrupt is accepted, before the context
	// push; pc is the interrupted instruction address.
	OnInterrupt(pc uint16, line int)
	// QuietFetch reports that OnFetch(prev, pc) for a straight-line step
	// inside a fused block may be skipped (cpu.FetchFilter).
	QuietFetch(prev, pc uint16) bool
	// QuietRead reports that OnRead(pc, addr, ·) may be skipped where
	// block execution retires a spin loop without running it
	// (cpu.ReadFilter).
	QuietRead(pc, addr uint16) bool

	// Violation returns the first breach observed since the last Clear,
	// or nil.
	Violation() *Violation
	// Clear returns the monitor to its freshly constructed state.
	Clear()
}
