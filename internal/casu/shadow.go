package casu

import "eilid/internal/isa"

// ShadowStack is a CFI CaRE-style hardware shadow stack (Nyman et al.,
// arXiv:1706.05715): dedicated hardware snoops the fetch stream,
// mirrors every call and interrupt entry onto a protected internal
// stack, and resets the device when a return (or return-from-interrupt)
// transfers control anywhere but a genuinely recorded return site. It
// needs no firmware instrumentation and no secure ROM — it runs the
// original build — so it is the natural comparative baseline for
// EILID's backward-edge properties (P1/P2). It deliberately does not
// watch forward edges (indirect calls and jumps land wherever they
// point) or data: those are exactly the gaps the defense × attack
// matrix is meant to expose.
//
// Mechanics: the monitor classifies each fetched instruction (call,
// ret — the MSP430 `mov @sp+, pc` idiom — or reti) by decoding it from
// a side-effect-free memory tap, then resolves the classification at
// the *next* control event, when the instruction has architecturally
// completed: a call pushes its return address, a return is checked
// against the recorded frames, an accepted interrupt pushes the
// interrupted pc. Returns match by popping to the nearest agreeing call
// frame (never across an interrupt frame), which tolerates benign
// tail-call idioms while still catching every corrupted return: a
// forged address equals no live frame.
type ShadowStack struct {
	cfg ShadowConfig

	violation *Violation

	stack []frame
	// pending is the classification of the most recently fetched (now
	// executing) instruction, resolved at the next OnFetch/OnInterrupt.
	pending stackOp

	// decode caches instruction classifications by pc since the last
	// Clear. Entries whose fetch window a write may have touched are
	// dropped eagerly; Clear drops the whole cache, because wild control
	// flow can classify data bytes that a device reset or a recycle
	// rewrites behind the monitor's back — and the harness's
	// arbitrary-write primitive is off-bus, so eager invalidation alone
	// cannot see every divergence.
	decode    map[uint16]stackOp
	minCached uint16
}

// ShadowConfig parameterizes the shadow-stack monitor.
type ShadowConfig struct {
	// Peek reads a word of memory without bus side effects (the
	// hardware's private fetch-stream tap).
	Peek func(addr uint16) uint16
}

// shadowDepth bounds the hardware stack. On overflow the oldest frame
// is discarded: the monitor degrades to not vouching for the eldest
// callers rather than false-positives on deep recursion.
const shadowDepth = 256

type opClass uint8

const (
	opNone opClass = iota
	opOther
	opCall
	opRet
	opReti
)

// stackOp is a classified instruction: its class plus, for calls, the
// return address the call records (pc + size).
type stackOp struct {
	class opClass
	ra    uint16
	pc    uint16
}

type frameClass uint8

const (
	frameCall frameClass = iota
	frameIRQ
)

// frame is one shadow-stack entry.
type frame struct {
	class frameClass
	ra    uint16
}

// NewShadowStack creates an armed shadow-stack monitor.
func NewShadowStack(cfg ShadowConfig) *ShadowStack {
	return &ShadowStack{
		cfg:       cfg,
		stack:     make([]frame, 0, shadowDepth),
		decode:    make(map[uint16]stackOp),
		minCached: 0xFFFF,
	}
}

// Violation implements Defense.
func (s *ShadowStack) Violation() *Violation { return s.violation }

// Clear implements Defense: the violation, the call history and the
// decode cache all go. The stack and the cache are emptied in place, so
// this path does not allocate.
func (s *ShadowStack) Clear() {
	s.violation = nil
	s.stack = s.stack[:0]
	s.pending = stackOp{}
	clear(s.decode)
	s.minCached = 0xFFFF
}

// Depth returns the current shadow-stack depth (tests/debugging).
func (s *ShadowStack) Depth() int { return len(s.stack) }

func (s *ShadowStack) trip(kind ViolationKind, pc, addr uint16) {
	if s.violation == nil {
		s.violation = &Violation{Kind: kind, PC: pc, Addr: addr}
	}
}

// classify decodes (with caching) the instruction at pc.
func (s *ShadowStack) classify(pc uint16) stackOp {
	if op, ok := s.decode[pc]; ok {
		return op
	}
	op := s.decodeAt(pc)
	s.decode[pc] = op
	if pc < s.minCached {
		s.minCached = pc
	}
	return op
}

// decodeAt classifies the instruction at pc from memory, uncached.
func (s *ShadowStack) decodeAt(pc uint16) stackOp {
	words := [3]uint16{s.cfg.Peek(pc), s.cfg.Peek(pc + 2), s.cfg.Peek(pc + 4)}
	op := stackOp{class: opOther, pc: pc}
	if in, _, err := isa.Decode(words[:]); err == nil {
		switch {
		case in.Op == isa.CALL:
			op = stackOp{class: opCall, ra: pc + in.Size(), pc: pc}
		case in.Op == isa.RETI:
			op = stackOp{class: opReti, pc: pc}
		case in.Op == isa.MOV && !in.Byte &&
			in.Src.Mode == isa.ModeIndirectInc && in.Src.Reg == isa.SP &&
			in.Dst.Mode == isa.ModeRegister && in.Dst.Reg == isa.PC:
			// ret — the MSP430 emulated `mov @sp+, pc`.
			op = stackOp{class: opRet, pc: pc}
		}
	}
	return op
}

// push records a frame, discarding the eldest on overflow.
func (s *ShadowStack) push(f frame) {
	if len(s.stack) == cap(s.stack) {
		copy(s.stack, s.stack[1:])
		s.stack = s.stack[:len(s.stack)-1]
	}
	s.stack = append(s.stack, f)
}

// resolvePending applies the architectural effect of the instruction
// classified at the previous fetch, now that it has completed and
// control has arrived at target.
func (s *ShadowStack) resolvePending(target uint16) {
	p := s.pending
	s.pending = stackOp{}
	switch p.class {
	case opCall:
		s.push(frame{class: frameCall, ra: p.ra})
	case opRet:
		// Pop to the nearest matching call frame; an interrupt frame is
		// a hard floor (a plain ret must never unwind an interrupt).
		for i := len(s.stack) - 1; i >= 0; i-- {
			f := s.stack[i]
			if f.class != frameCall {
				break
			}
			if f.ra == target {
				s.stack = s.stack[:i]
				return
			}
		}
		s.trip(ViolationShadowRA, p.pc, target)
	case opReti:
		// A return-from-interrupt must match the top frame exactly: the
		// hardware pushed it last.
		if n := len(s.stack); n > 0 && s.stack[n-1].class == frameIRQ && s.stack[n-1].ra == target {
			s.stack = s.stack[:n-1]
			return
		}
		s.trip(ViolationShadowRFI, p.pc, target)
	}
}

// OnFetch implements Defense: resolve the previously fetched
// instruction against the arrival at pc, then classify the new one.
func (s *ShadowStack) OnFetch(prev, pc uint16) {
	s.resolvePending(pc)
	s.pending = s.classify(pc)
}

// QuietFetch implements Defense: only calls, returns and
// returns-from-interrupt move the shadow stack, so a fetch between two
// other instructions resolves nothing and records nothing.
func (s *ShadowStack) QuietFetch(prev, pc uint16) bool {
	return s.decodeAt(prev).class == opOther && s.decodeAt(pc).class == opOther
}

// OnRead implements Defense (the shadow stack does not watch reads).
func (s *ShadowStack) OnRead(pc, addr uint16, byteWide bool) {}

// QuietRead implements Defense: every read is quiet.
func (s *ShadowStack) QuietRead(pc, addr uint16) bool { return true }

// OnWrite implements Defense: drop decode-cache entries whose fetch
// window the write may cover (an instruction starts at most four bytes
// before a word it consumes).
func (s *ShadowStack) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	if s.minCached == 0xFFFF || int(addr) < int(s.minCached)-4 {
		return
	}
	w := addr &^ 1
	delete(s.decode, w)
	delete(s.decode, w-2)
	delete(s.decode, w-4)
}

// OnInterrupt implements Defense: the instruction before the interrupt
// completed with control headed to pc; record the interrupted context.
func (s *ShadowStack) OnInterrupt(pc uint16, line int) {
	s.resolvePending(pc)
	s.push(frame{class: frameIRQ, ra: pc})
}
