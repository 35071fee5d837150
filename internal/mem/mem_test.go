package mem

import (
	"testing"
	"testing/quick"
)

func TestDefaultLayoutValid(t *testing.T) {
	if err := DefaultLayout().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidateRejectsOverlap(t *testing.T) {
	l := DefaultLayout()
	l.DMEMStart = 0x0100 // overlaps peripheral window
	if err := l.Validate(); err == nil {
		t.Error("overlapping layout accepted")
	}
	l = DefaultLayout()
	l.PMEMEnd = 0x0100 // start after end
	if err := l.Validate(); err == nil {
		t.Error("inverted region accepted")
	}
}

func TestRegionOf(t *testing.T) {
	l := DefaultLayout()
	cases := []struct {
		addr uint16
		want Region
	}{
		{0x0000, RegionPeriph},
		{0x01FF, RegionPeriph},
		{0x0200, RegionDMEM},
		{0x09FF, RegionDMEM},
		{0x0A00, RegionSecureData},
		{0x0AFF, RegionSecureData},
		{0x0B00, RegionUnmapped},
		{0xDFFF, RegionUnmapped},
		{0xE000, RegionPMEM},
		{0xF7FF, RegionPMEM},
		{0xF800, RegionSecureROM},
		{0xFDFF, RegionSecureROM},
		{0xFE00, RegionUnmapped},
		{0xFFE0, RegionIVT},
		{0xFFFE, RegionIVT},
	}
	for _, c := range cases {
		if got := l.RegionOf(c.addr); got != c.want {
			t.Errorf("RegionOf(0x%04x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestExecutable(t *testing.T) {
	l := DefaultLayout()
	if l.Executable(0x0300) {
		t.Error("DMEM must not be executable (W^X)")
	}
	if l.Executable(0x0A10) {
		t.Error("secure DMEM must not be executable")
	}
	if !l.Executable(0xE000) {
		t.Error("PMEM must be executable")
	}
	if !l.Executable(0xF900) {
		t.Error("secure ROM must be executable")
	}
}

func TestWordByteAccess(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	s.StoreWord(0x0200, 0xBEEF)
	if got := s.LoadWord(0x0200); got != 0xBEEF {
		t.Errorf("LoadWord = 0x%04x", got)
	}
	if got := s.LoadByte(0x0200); got != 0xEF {
		t.Errorf("low byte = 0x%02x, want 0xef (little endian)", got)
	}
	if got := s.LoadByte(0x0201); got != 0xBE {
		t.Errorf("high byte = 0x%02x, want 0xbe", got)
	}
	s.StoreByte(0x0201, 0xAA)
	if got := s.LoadWord(0x0200); got != 0xAAEF {
		t.Errorf("after byte store LoadWord = 0x%04x, want 0xaaef", got)
	}
	// Odd word access aligns down, as on the real bus.
	if got := s.LoadWord(0x0201); got != 0xAAEF {
		t.Errorf("odd-address word load = 0x%04x, want aligned 0xaaef", got)
	}
	s.StoreWord(0x0203, 0x1234)
	if got := s.LoadWord(0x0202); got != 0x1234 {
		t.Errorf("odd-address word store not aligned: 0x%04x", got)
	}
}

func TestUnmappedAccess(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	if got := s.LoadWord(0x0C00); got != 0xFFFF {
		t.Errorf("unmapped read = 0x%04x, want 0xffff", got)
	}
	s.StoreWord(0x0C00, 0x1234)
	if got := s.LoadWord(0x0C00); got != 0xFFFF {
		t.Errorf("unmapped write took effect")
	}
	if got := s.LoadByte(0x0C01); got != 0xFF {
		t.Errorf("unmapped byte read = 0x%02x", got)
	}
	if s.BusErrors != 4 {
		t.Errorf("BusErrors = %d, want 4", s.BusErrors)
	}
}

type stubPeriph struct {
	words map[uint16]uint16
}

func (p *stubPeriph) LoadWord(a uint16) uint16     { return p.words[a] }
func (p *stubPeriph) StoreWord(a uint16, v uint16) { p.words[a] = v }

func TestPeripheralMapping(t *testing.T) {
	p := &stubPeriph{words: map[uint16]uint16{}}
	s := MustNewSpace(DefaultLayout(), Mapping{0x0020, 0x002F, p})
	s.StoreWord(0x0020, 0x00FF)
	if p.words[0x0020] != 0x00FF {
		t.Error("peripheral store not dispatched")
	}
	if got := s.LoadWord(0x0020); got != 0x00FF {
		t.Errorf("peripheral load = 0x%04x", got)
	}
	// Byte access synthesized through word handler.
	s.StoreByte(0x0021, 0xAB)
	if p.words[0x0020] != 0xABFF {
		t.Errorf("byte store through word handler = 0x%04x, want 0xabff", p.words[0x0020])
	}
	if got := s.LoadByte(0x0021); got != 0xAB {
		t.Errorf("byte load through word handler = 0x%02x", got)
	}

	// Overlapping and out-of-window mappings are rejected.
	if _, err := NewSpace(DefaultLayout(), Mapping{0x0020, 0x002F, p}, Mapping{0x0028, 0x0030, &stubPeriph{}}); err == nil {
		t.Error("overlapping mapping accepted")
	}
	if _, err := NewSpace(DefaultLayout(), Mapping{0x0300, 0x0310, &stubPeriph{}}); err == nil {
		t.Error("mapping outside peripheral window accepted")
	}
	if _, err := NewSpace(DefaultLayout(), Mapping{0x0040, 0x0030, &stubPeriph{}}); err == nil {
		t.Error("inverted mapping accepted")
	}
}

func TestLoadImageAndReadRaw(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	img := []byte{0x01, 0x02, 0x03, 0x04}
	if err := s.LoadImage(0xE000, img); err != nil {
		t.Fatal(err)
	}
	got := s.ReadRaw(0xE000, 4)
	for i := range img {
		if got[i] != img[i] {
			t.Fatalf("ReadRaw = %v, want %v", got, img)
		}
	}
	if err := s.LoadImage(0xFFFE, []byte{1, 2, 3}); err == nil {
		t.Error("image exceeding address space accepted")
	}
}

func TestResetClearsVolatileOnly(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	s.StoreWord(0x0300, 0x1111)          // DMEM
	s.StoreWord(0x0A10, 0x2222)          // secure DMEM
	s.LoadImage(0xE000, []byte{5, 6})    // PMEM
	s.LoadImage(0xF800, []byte{7, 8})    // secure ROM
	s.LoadImage(0xFFFE, []byte{0, 0xE0}) // reset vector
	s.Reset()
	if s.LoadWord(0x0300) != 0 {
		t.Error("DMEM survived reset")
	}
	if s.LoadWord(0x0A10) != 0 {
		t.Error("secure DMEM survived reset")
	}
	if s.LoadWord(0xE000) != 0x0605 {
		t.Error("PMEM wiped by reset")
	}
	if s.LoadWord(0xF800) != 0x0807 {
		t.Error("secure ROM wiped by reset")
	}
	if s.LoadWord(0xFFFE) != 0xE000 {
		t.Error("IVT wiped by reset")
	}
}

func TestVectorAddresses(t *testing.T) {
	l := DefaultLayout()
	if got := l.ResetVector(); got != 0xFFFE {
		t.Errorf("ResetVector = 0x%04x", got)
	}
	if got := l.VectorAddress(0); got != 0xFFE0 {
		t.Errorf("VectorAddress(0) = 0x%04x", got)
	}
	if got := l.VectorAddress(8); got != 0xFFF0 {
		t.Errorf("VectorAddress(8) = 0x%04x", got)
	}
}

func TestRegionPartitionProperty(t *testing.T) {
	// Every address belongs to exactly one region, and RegionOf agrees
	// with Executable.
	l := DefaultLayout()
	f := func(addr uint16) bool {
		r := l.RegionOf(addr)
		exec := l.Executable(addr)
		wantExec := r == RegionPMEM || r == RegionSecureROM
		return exec == wantExec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	f := func(off uint16, v uint16) bool {
		// Constrain to DMEM.
		addr := 0x0200 + off%0x07FE
		s.StoreWord(addr, v)
		return s.LoadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestByteWordConsistencyProperty(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	f := func(off uint16, v uint16) bool {
		addr := (0x0200 + off%0x07FE) &^ 1
		s.StoreWord(addr, v)
		lo, hi := s.LoadByte(addr), s.LoadByte(addr+1)
		return uint16(lo)|uint16(hi)<<8 == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
