package casu

import (
	"testing"

	"eilid/internal/isa"
)

// wordMem is a tiny word-addressed memory for driving the monitors'
// Peek taps without a full machine.
type wordMem map[uint16]uint16

func (m wordMem) peek(addr uint16) uint16 { return m[addr&^1] }

// plant encodes in at addr and returns the address just past it.
func (m wordMem) plant(t *testing.T, addr uint16, in isa.Instruction) uint16 {
	t.Helper()
	words, err := isa.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		m[addr+uint16(2*i)] = w
	}
	return addr + uint16(2*len(words))
}

func call(target uint16) isa.Instruction {
	return isa.Instruction{Op: isa.CALL, Src: isa.ImmExt(target)}
}

// ret is the MSP430 emulated return, mov @sp+, pc.
func ret() isa.Instruction {
	return isa.Instruction{Op: isa.MOV, Src: isa.IndirectInc(isa.SP), Dst: isa.RegOp(isa.PC)}
}

func newShadow(m wordMem) *ShadowStack {
	return NewShadowStack(ShadowConfig{Peek: m.peek})
}

// TestShadowCallRetMatch: a call followed by a return to the recorded
// address pops cleanly; a return anywhere else trips ShadowRA.
func TestShadowCallRetMatch(t *testing.T) {
	m := wordMem{}
	ra := m.plant(t, 0xE000, call(0xE100)) // ra = 0xE004
	m.plant(t, 0xE100, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)      // fetch the call
	s.OnFetch(0xE000, 0xE100) // call completed: frame pushed; fetch the ret
	if s.Depth() != 1 {
		t.Fatalf("depth after call = %d, want 1", s.Depth())
	}
	s.OnFetch(0xE100, ra) // ret completed, target matches
	if v := s.Violation(); v != nil {
		t.Fatalf("matched return flagged: %+v", v)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth after matched ret = %d, want 0", s.Depth())
	}

	// Same shape, corrupted return target.
	s = newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	s.OnFetch(0xE100, 0xD000) // smashed RA
	v := s.Violation()
	if v == nil || v.Kind != ViolationShadowRA {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch", v)
	}
	if v.PC != 0xE100 || v.Addr != 0xD000 {
		t.Errorf("violation context %+v", v)
	}
}

// TestShadowTailCall: a return may pop through nested call frames to
// the nearest matching one (benign tail-call idiom), but never across
// an interrupt frame.
func TestShadowTailCall(t *testing.T) {
	m := wordMem{}
	ra1 := m.plant(t, 0xE000, call(0xE100)) // outer call
	m.plant(t, 0xE100, call(0xE200))        // inner call
	m.plant(t, 0xE200, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	s.OnFetch(0xE100, 0xE200)
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth())
	}
	s.OnFetch(0xE200, ra1) // returns straight to the outer caller
	if v := s.Violation(); v != nil {
		t.Fatalf("tail-call return flagged: %+v", v)
	}
	if s.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", s.Depth())
	}

	// An interrupt frame between the ret and the matching call frame is
	// a hard floor: popping across it must trip.
	s = newShadow(m)
	s.OnFetch(0, 0xE000)     // fetch the outer call
	s.OnInterrupt(0xE100, 3) // IRQ accepted as it completes: call frame, then IRQ frame
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth())
	}
	s.OnFetch(0, 0xE200)   // handler body reaches a plain ret
	s.OnFetch(0xE200, ra1) // tries to unwind across the IRQ frame
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRA {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch", v)
	}
}

// TestShadowInterruptRoundTrip: an accepted interrupt records the
// interrupted pc; RETI must return exactly there, and the push must
// happen even when the interrupt lands right after a call (pending-op
// ordering).
func TestShadowInterruptRoundTrip(t *testing.T) {
	m := wordMem{}
	m.plant(t, 0xE000, call(0xE100))
	m.plant(t, 0xF000, isa.Instruction{Op: isa.RETI})

	s := newShadow(m)
	s.OnFetch(0, 0xE000)     // fetch the call
	s.OnInterrupt(0xE100, 2) // IRQ fires as the call completes
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2 (call frame + IRQ frame)", s.Depth())
	}
	s.OnFetch(0, 0xF000)      // handler fetches the reti
	s.OnFetch(0xF000, 0xE100) // reti completes back to the interrupted pc
	if v := s.Violation(); v != nil {
		t.Fatalf("legal reti flagged: %+v", v)
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (call frame survives)", s.Depth())
	}

	// A reti whose target does not match the recorded context trips RFI.
	s = newShadow(m)
	s.OnInterrupt(0xE100, 2)
	s.OnFetch(0, 0xF000)
	s.OnFetch(0xF000, 0xD000) // tampered saved context
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRFI {
		t.Fatalf("violation = %+v, want shadow-rfi-mismatch", v)
	}

	// A reti with no interrupt frame at all trips too.
	s = newShadow(m)
	s.OnFetch(0, 0xF000)
	s.OnFetch(0xF000, 0xE000)
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRFI {
		t.Fatalf("violation = %+v, want shadow-rfi-mismatch", v)
	}
}

// TestShadowOverflowDiscardsOldest: the bounded hardware stack drops
// the eldest frame on overflow instead of tripping on deep recursion,
// so exactly shadowDepth returns still match and the next one trips.
func TestShadowOverflowDiscardsOldest(t *testing.T) {
	m := wordMem{}
	ra := m.plant(t, 0xE000, call(0xE000)) // self-call, ra = 0xE004
	m.plant(t, 0xE100, ret())

	s := newShadow(m)
	for i := 0; i < shadowDepth+3; i++ {
		s.OnFetch(0, 0xE000)
	}
	s.OnFetch(0xE000, 0xE100) // the last call completes; fetch the ret
	if s.Depth() != shadowDepth {
		t.Fatalf("depth = %d, want %d", s.Depth(), shadowDepth)
	}
	if v := s.Violation(); v != nil {
		t.Fatalf("overflow flagged: %+v", v)
	}
	for i := 0; i < shadowDepth; i++ {
		s.OnFetch(0xE100, ra) // the ret completes and pops a frame
		s.OnFetch(ra, 0xE100) // fetch the ret again
	}
	if v := s.Violation(); v != nil || s.Depth() != 0 {
		t.Fatalf("%d matched returns: depth %d, violation %+v", shadowDepth, s.Depth(), v)
	}
	s.OnFetch(0xE100, ra) // the discarded frames cannot vouch for this one
	if v := s.Violation(); v == nil || v.Kind != ViolationShadowRA {
		t.Fatalf("violation = %+v, want shadow-ra-mismatch", v)
	}
}

// TestShadowInvalidation: a write over a cached fetch window drops the
// stale classification, and Clear drops the whole cache (a recycle or a
// device reset rewrites memory behind the monitor's back).
func TestShadowInvalidation(t *testing.T) {
	m := wordMem{}
	ra := m.plant(t, 0xE000, call(0xE100))
	m.plant(t, 0xE100, ret())

	s := newShadow(m)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100) // call cached and resolved; ret cached
	s.OnFetch(0xE100, ra)
	if s.Violation() != nil || s.Depth() != 0 {
		t.Fatal("warm-up round trip failed")
	}

	// Overwrite the call site with something else on-bus; the next pass
	// must not push a frame from the stale cache entry.
	m[0xE000] = 0
	m[0xE002] = 0
	s.OnWrite(0xE100, 0xE000, false, 0)
	s.OnWrite(0xE100, 0xE002, false, 0)
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	if s.Depth() != 0 {
		t.Fatalf("stale call classification survived OnWrite: depth = %d", s.Depth())
	}

	// Restore the call off-bus (as a recycle does) — only Clear may
	// resynchronize the cache.
	words := isa.MustEncode(call(0xE100))
	m[0xE000], m[0xE002] = words[0], words[1]
	s.Clear()
	s.OnFetch(0, 0xE000)
	s.OnFetch(0xE000, 0xE100)
	if s.Depth() != 1 {
		t.Fatalf("Clear did not drop the decode cache: depth = %d", s.Depth())
	}
}

// TestCritVarTamperAndTrack: off-bus divergence trips and the first
// violation latches; on-bus stores (word and both byte halves) track
// without tripping.
func TestCritVarTamperAndTrack(t *testing.T) {
	m := wordMem{0x0400: 0x1234, 0x0402: 0xAAAA}
	c := NewCritVar(CritVarConfig{Watch: []uint16{0x0400, 0x0402}, Peek: m.peek})

	c.OnFetch(0, 0xE000) // first boundary: snapshot
	c.OnFetch(0xE000, 0xE002)
	if c.Violation() != nil {
		t.Fatal("quiescent variable flagged")
	}

	// On-bus updates are attested.
	m[0x0400] = 0x5678
	c.OnWrite(0xE002, 0x0400, false, 0x5678)
	c.OnFetch(0xE002, 0xE004)
	if c.Violation() != nil {
		t.Fatal("on-bus word store flagged")
	}
	m[0x0402] = 0xAA55
	c.OnWrite(0xE004, 0x0402, true, 0x55) // low byte
	m[0x0402] = 0xBB55
	c.OnWrite(0xE006, 0x0403, true, 0xBB) // high byte
	c.OnFetch(0xE006, 0xE008)
	if v := c.Violation(); v != nil {
		t.Fatalf("on-bus byte stores flagged: %+v", v)
	}

	// Off-bus tamper: the comparator sweep catches it at the next
	// boundary and attributes the watched address; a second tamper
	// before the reset leaves the first violation in place.
	m[0x0400] = 0xDEAD
	c.OnFetch(0xE008, 0xE00A)
	v := c.Violation()
	if v == nil || v.Kind != ViolationCritVar {
		t.Fatalf("violation = %+v, want critical-variable-tamper", v)
	}
	if v.PC != 0xE00A || v.Addr != 0x0400 {
		t.Errorf("violation context %+v", v)
	}
	m[0x0402] = 0xBEEF
	c.OnFetch(0xE00A, 0xE00C)
	if got := c.Violation(); *got != *v {
		t.Fatalf("violation = %+v after a second tamper, want the first %+v", got, v)
	}

	// Clear re-arms and resnapshots: the tampered value is the new
	// baseline, not a fresh violation.
	c.Clear()
	if c.Violation() != nil {
		t.Fatal("Clear left the violation latched")
	}
	c.OnFetch(0, 0xE000)
	c.OnFetch(0xE000, 0xE002)
	if c.Violation() != nil {
		t.Fatal("post-reset snapshot flagged the old tamper")
	}
}

// TestDefenseClearAllocFree: Clear runs on the machine-recycle hot
// path (~µs budget per job) for every monitor, so none of them may
// allocate.
func TestDefenseClearAllocFree(t *testing.T) {
	m := wordMem{0x0400: 1}
	defenses := map[string]Defense{
		"monitor": NewMonitor(testConfig()),
		"shadow":  newShadow(m),
		"critvar": NewCritVar(CritVarConfig{Watch: []uint16{0x0400}, Peek: m.peek}),
	}
	for name, d := range defenses {
		// Dirty some state first so the clears do real work.
		d.OnFetch(0, 0x0300)
		d.OnWrite(0xE000, 0xE100, false, 1)
		if allocs := testing.AllocsPerRun(100, d.Clear); allocs != 0 {
			t.Errorf("%s: Clear allocates %.1f objects/run", name, allocs)
		}
		if d.Violation() != nil {
			t.Errorf("%s: Clear left a violation latched", name)
		}
	}
}

// TestQuietFetch: wherever a defense calls a fetch quiet, delivering it
// trips nothing and leaves the state later callbacks read unchanged;
// fetches that move that state are loud.
func TestQuietFetch(t *testing.T) {
	cfg := testConfig()
	l := cfg.Layout
	addrs := []uint16{0x0200, 0xE000, 0xE002, 0xF7FE, l.SecureROMStart, l.SecureROMStart + 2, cfg.ExitPoint, 0xFFFE}
	for _, prev := range addrs {
		for _, pc := range addrs {
			m := NewMonitor(cfg)
			m.OnFetch(prev, pc)
			if m.QuietFetch(prev, pc) && m.Violation() != nil {
				t.Errorf("eilid: quiet fetch %04x->%04x tripped %v", prev, pc, m.Violation())
			}
		}
	}
	if m := NewMonitor(cfg); !m.QuietFetch(0xE000, 0xE002) || m.QuietFetch(0xF7FE, l.SecureROMStart) {
		t.Error("eilid: a PMEM step must be quiet, the fall-through into the ROM loud")
	}

	mem := wordMem{}
	mem.plant(t, 0xE000, isa.Instruction{Op: isa.ADD, Src: isa.RegOp(4), Dst: isa.RegOp(5)})
	mem.plant(t, 0xE002, isa.Instruction{Op: isa.ADD, Src: isa.RegOp(5), Dst: isa.RegOp(6)})
	mem.plant(t, 0xE004, call(0xE100))
	mem.plant(t, 0xE100, ret())
	mem.plant(t, 0xE102, isa.Instruction{Op: isa.RETI})
	s := newShadow(mem)
	for _, tc := range []struct {
		prev, pc uint16
		quiet    bool
	}{
		{0xE000, 0xE002, true},
		{0xE002, 0xE004, false}, // the call is fetched
		{0xE004, 0xE100, false}, // the call resolves
		{0xE002, 0xE100, false}, // a ret is fetched
		{0xE100, 0xE000, false}, // a ret resolves
		{0xE000, 0xE102, false}, // a reti is fetched
	} {
		if got := s.QuietFetch(tc.prev, tc.pc); got != tc.quiet {
			t.Errorf("shadow: QuietFetch(%04x, %04x) = %v, want %v", tc.prev, tc.pc, got, tc.quiet)
		}
	}
	if len(s.decode) != 0 {
		t.Error("shadow: QuietFetch filled the decode cache")
	}

	if !NewCritVar(CritVarConfig{Watch: []uint16{0x0400}, Peek: mem.peek}).QuietFetch(0xE000, 0xE002) {
		t.Error("critvar: in-block fetches must be quiet")
	}
}

// TestQuietRead: each defense calls a read quiet exactly when
// delivering it trips nothing (none of them keeps state on reads).
// eilid hears one kind of read, secure data read from outside the
// secure ROM; shadow and critvar hear none.
func TestQuietRead(t *testing.T) {
	cfg := testConfig()
	l := cfg.Layout
	m := wordMem{0x0400: 1}
	defenses := map[string]func() Defense{
		"eilid":   func() Defense { return NewMonitor(cfg) },
		"shadow":  func() Defense { return newShadow(m) },
		"critvar": func() Defense { return NewCritVar(CritVarConfig{Watch: []uint16{0x0400}, Peek: m.peek}) },
	}
	pcs := []uint16{0xE000, 0xF7FE, l.SecureROMStart, l.SecureROMStart + 2, cfg.ExitPoint}
	addrs := []uint16{0x0074, 0x0200, 0x0400, l.SecureDataStart, l.SecureDataStart + 1, l.SecureDataEnd, 0xE000, l.SecureROMStart}
	for name, mk := range defenses {
		for _, pc := range pcs {
			for _, addr := range addrs {
				d := mk()
				d.OnRead(pc, addr, false)
				tripped := d.Violation() != nil
				if d.QuietRead(pc, addr) == tripped {
					t.Errorf("%s: QuietRead(%04x, %04x) = %v, and the read tripped %v", name, pc, addr, !tripped, d.Violation())
				}
			}
		}
	}
	if d := NewMonitor(cfg); d.QuietRead(0xE000, l.SecureDataStart) || !d.QuietRead(l.SecureROMStart, l.SecureDataStart) {
		t.Error("eilid: a secure-data read from PMEM must be loud, from the ROM quiet")
	}
}
