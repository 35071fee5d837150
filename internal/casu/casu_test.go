package casu

import (
	"errors"
	"testing"
	"testing/quick"

	"eilid/internal/mem"
)

func testConfig() Config {
	l := mem.DefaultLayout()
	return Config{
		Layout:        l,
		EntryPoint:    l.SecureROMStart,
		ExitPoint:     l.SecureROMStart + 0x40,
		ViolationAddr: 0x00F0,
	}
}

func TestImmutabilityRules(t *testing.T) {
	m := NewMonitor(testConfig())
	m.OnWrite(0xE000, 0xE100, false, 1) // PMEM write
	v := m.Violation()
	if v == nil || v.Kind != ViolationPMEMWrite {
		t.Fatalf("violation = %+v, want pmem-write", v)
	}
	if v.PC != 0xE000 || v.Addr != 0xE100 {
		t.Errorf("violation context %+v", v)
	}

	m = NewMonitor(testConfig())
	m.OnWrite(0xE000, 0xF900, false, 1) // secure ROM write
	if v := m.Violation(); v == nil || v.Kind != ViolationSecureROMWrite {
		t.Fatalf("violation = %+v, want secure-rom-write", v)
	}

	m = NewMonitor(testConfig())
	m.OnWrite(0xE000, 0xFFFE, false, 1) // IVT write
	if v := m.Violation(); v == nil || v.Kind != ViolationIVTWrite {
		t.Fatalf("violation = %+v, want ivt-write", v)
	}

	// DMEM writes are fine.
	m = NewMonitor(testConfig())
	m.OnWrite(0xE000, 0x0300, false, 1)
	if m.Violation() != nil {
		t.Error("DMEM write flagged")
	}
}

func TestWXOnFetch(t *testing.T) {
	m := NewMonitor(testConfig())
	m.OnFetch(0xE000, 0x0300) // executing from DMEM
	if v := m.Violation(); v == nil || v.Kind != ViolationExecNonExec {
		t.Fatalf("violation = %+v, want exec-from-nonexec", v)
	}
	m = NewMonitor(testConfig())
	m.OnFetch(0xE000, 0xE002) // normal PMEM execution
	if m.Violation() != nil {
		t.Error("PMEM fetch flagged")
	}
}

func TestSecureRegionEntryExit(t *testing.T) {
	cfg := testConfig()

	// Legal entry at the entry point, sequential execution, exit from
	// the exit point.
	m := NewMonitor(cfg)
	m.OnFetch(0xE010, cfg.EntryPoint)
	m.OnFetch(cfg.EntryPoint, cfg.EntryPoint+4)
	m.OnFetch(cfg.EntryPoint+4, cfg.ExitPoint)
	m.OnFetch(cfg.ExitPoint, 0xE014)
	if v := m.Violation(); v != nil {
		t.Fatalf("legal secure round trip flagged: %v", v)
	}

	// Entry bypassing the entry point.
	m = NewMonitor(cfg)
	m.OnFetch(0xE010, cfg.EntryPoint+10)
	if v := m.Violation(); v == nil || v.Kind != ViolationSecureEntry {
		t.Fatalf("violation = %+v, want secure-entry-bypass", v)
	}

	// Exit from the middle of the body.
	m = NewMonitor(cfg)
	m.OnFetch(0xE010, cfg.EntryPoint)
	m.OnFetch(cfg.EntryPoint, cfg.EntryPoint+8)
	m.OnFetch(cfg.EntryPoint+8, 0xE014)
	if v := m.Violation(); v == nil || v.Kind != ViolationSecureExit {
		t.Fatalf("violation = %+v, want secure-exit-bypass", v)
	}
}

func TestSecureDataExclusivity(t *testing.T) {
	cfg := testConfig()
	ss := cfg.Layout.SecureDataStart

	// Non-secure read and write both trip.
	m := NewMonitor(cfg)
	m.OnRead(0xE000, ss, false)
	if v := m.Violation(); v == nil || v.Kind != ViolationSecureData {
		t.Fatalf("read violation = %+v", v)
	}
	m = NewMonitor(cfg)
	m.OnWrite(0xE000, ss+2, false, 0xAAAA)
	if v := m.Violation(); v == nil || v.Kind != ViolationSecureData {
		t.Fatalf("write violation = %+v", v)
	}

	// Same accesses from inside EILIDsw are legal.
	m = NewMonitor(cfg)
	m.OnRead(cfg.EntryPoint+6, ss, false)
	m.OnWrite(cfg.EntryPoint+8, ss, false, 1)
	if m.Violation() != nil {
		t.Error("secure-code shadow stack access flagged")
	}
}

func TestViolationLatchSemantics(t *testing.T) {
	cfg := testConfig()

	// EILIDsw signalling: CFI failure.
	m := NewMonitor(cfg)
	m.OnWrite(cfg.EntryPoint+0x20, cfg.ViolationAddr, false, 1)
	if v := m.Violation(); v == nil || v.Kind != ViolationCFIFail {
		t.Fatalf("violation = %+v, want cfi-check-failed", v)
	}

	// Application code poking the latch: its own violation.
	m = NewMonitor(cfg)
	m.OnWrite(0xE000, cfg.ViolationAddr, false, 1)
	if v := m.Violation(); v == nil || v.Kind != ViolationLatchWrite {
		t.Fatalf("violation = %+v, want violation-latch-write", v)
	}
}

func TestIRQInSecure(t *testing.T) {
	cfg := testConfig()
	m := NewMonitor(cfg)
	m.OnInterrupt(cfg.EntryPoint+2, 8)
	if v := m.Violation(); v == nil || v.Kind != ViolationIRQInSecure {
		t.Fatalf("violation = %+v, want irq-in-secure", v)
	}
	m = NewMonitor(cfg)
	m.OnInterrupt(0xE000, 8)
	if m.Violation() != nil {
		t.Error("normal interrupt flagged")
	}
}

func TestFirstViolationWinsAndClear(t *testing.T) {
	cfg := testConfig()
	m := NewMonitor(cfg)
	m.OnWrite(0xE000, 0xE100, false, 1)
	m.OnWrite(0xE002, 0xFFFE, false, 1)
	if v := m.Violation(); v.Kind != ViolationPMEMWrite {
		t.Errorf("first violation not preserved: %v", v)
	}
	m.Clear()
	if m.Violation() != nil {
		t.Error("Clear did not rearm")
	}
}

type stubIRQ struct{ line int }

func (s *stubIRQ) HighestPending() int { return s.line }
func (s *stubIRQ) Acknowledge(int)     { s.line = -1 }

func TestGateIRQMasksInSecure(t *testing.T) {
	l := mem.DefaultLayout()
	pc := uint16(0xE000)
	g := &GateIRQ{Inner: &stubIRQ{line: 8}, Layout: l, PCNow: func() uint16 { return pc }}
	if g.HighestPending() != 8 {
		t.Error("gate blocked interrupt outside secure region")
	}
	pc = l.SecureROMStart + 0x10
	if g.HighestPending() != -1 {
		t.Error("gate passed interrupt inside secure region")
	}
	pc = 0xE000
	g.Acknowledge(8)
	if g.HighestPending() != -1 {
		t.Error("acknowledge did not propagate")
	}
}

func TestMonitorNoFalsePositivesProperty(t *testing.T) {
	// Ordinary program behaviour (PMEM fetches, DMEM data traffic) never
	// trips the monitor.
	cfg := testConfig()
	f := func(pcOff, addrOff uint16, write bool, v uint16) bool {
		m := NewMonitor(cfg)
		pc := 0xE000 + pcOff%0x1800&^1
		addr := 0x0200 + addrOff%0x0800
		m.OnFetch(pc, pc)
		if write {
			m.OnWrite(pc, addr, false, v)
		} else {
			m.OnRead(pc, addr, false)
		}
		return m.Violation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestMonitorCatchesAllProtectedWritesProperty(t *testing.T) {
	// Any write outside DMEM/peripheral space from non-secure code trips.
	cfg := testConfig()
	f := func(addr uint16, v uint16) bool {
		m := NewMonitor(cfg)
		region := cfg.Layout.RegionOf(addr)
		m.OnWrite(0xE000, addr, false, v)
		switch region {
		case mem.RegionPMEM, mem.RegionSecureROM, mem.RegionIVT, mem.RegionSecureData:
			return m.Violation() != nil
		case mem.RegionPeriph:
			return (m.Violation() != nil) == (addr == cfg.ViolationAddr)
		default:
			return m.Violation() == nil
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestSecureUpdateLifecycle(t *testing.T) {
	key := []byte("device-shared-key-0123456789abcd")
	l := mem.DefaultLayout()
	space := mem.MustNewSpace(l)
	auth := NewAuthority(key)
	upd := NewUpdater(key, l)

	img := []byte{0x31, 0x40, 0x00, 0x0A} // mov #0x0A00, sp
	pkg := auth.Sign(0xE000, 1, img)
	if err := upd.Apply(space, pkg); err != nil {
		t.Fatalf("genuine update rejected: %v", err)
	}
	if got := space.LoadWord(0xE000); got != 0x4031 {
		t.Errorf("flash contents 0x%04x", got)
	}
	if upd.Version() != 1 || upd.Applied != 1 {
		t.Errorf("updater state %+v", upd)
	}

	// Tampered data fails.
	bad := auth.Sign(0xE000, 2, img)
	bad.Data[0] ^= 0xFF
	if err := upd.Apply(space, bad); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered update error = %v, want ErrBadMAC", err)
	}

	// Wrong key fails.
	rogue := NewAuthority([]byte("not-the-device-key-...........!"))
	if err := upd.Apply(space, rogue.Sign(0xE000, 2, img)); !errors.Is(err, ErrBadMAC) {
		t.Errorf("rogue update error = %v, want ErrBadMAC", err)
	}

	// Rollback fails.
	if err := upd.Apply(space, auth.Sign(0xE000, 1, img)); !errors.Is(err, ErrRollback) {
		t.Errorf("rollback error = %v, want ErrRollback", err)
	}

	// Out-of-PMEM target fails even when authentic.
	if err := upd.Apply(space, auth.Sign(0xFFFE, 3, img)); err == nil {
		t.Error("IVT-targeting update accepted")
	}
	if err := upd.Apply(space, auth.Sign(0x0200, 3, img)); err == nil {
		t.Error("DMEM-targeting update accepted")
	}
	// Empty update rejected.
	if err := upd.Apply(space, auth.Sign(0xE000, 3, nil)); err == nil {
		t.Error("empty update accepted")
	}
	if upd.Rejected != 6 {
		t.Errorf("Rejected = %d, want 6", upd.Rejected)
	}

	// Valid follow-up still works.
	if err := upd.Apply(space, auth.Sign(0xE004, 2, []byte{1, 2})); err != nil {
		t.Errorf("version-2 update rejected: %v", err)
	}
}

func TestUpdateMACBindsAllFields(t *testing.T) {
	key := []byte("k")
	f := func(base uint16, version uint32, data []byte, flip uint8) bool {
		if len(data) == 0 {
			return true
		}
		mac := computeMAC(key, base, version, data)
		// Flipping any input bit changes the MAC.
		d2 := append([]byte(nil), data...)
		d2[int(flip)%len(d2)] ^= 1 << (flip % 8)
		if computeMAC(key, base, version, d2) == mac {
			return false
		}
		if computeMAC(key, base^1, version, data) == mac {
			return false
		}
		if computeMAC(key, base, version+1, data) == mac {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
