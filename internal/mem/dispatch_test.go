package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// wordDev is a word-only handler (no ByteHandler) that records every
// call, so byte accesses exercise the Space's read-modify-write
// synthesis in both dispatchers.
type wordDev struct {
	regs map[uint16]uint16
	log  []string
}

func newWordDev() *wordDev { return &wordDev{regs: map[uint16]uint16{}} }

func (d *wordDev) LoadWord(addr uint16) uint16 {
	d.log = append(d.log, fmt.Sprintf("LW %04x", addr))
	return d.regs[addr] ^ 0xA5A5 // value depends on state, not just addr
}

func (d *wordDev) StoreWord(addr uint16, v uint16) {
	d.log = append(d.log, fmt.Sprintf("SW %04x %04x", addr, v))
	d.regs[addr] = v
}

// byteDev additionally implements ByteHandler.
type byteDev struct {
	wordDev
}

func (d *byteDev) LoadByte(addr uint16) uint8 {
	d.log = append(d.log, fmt.Sprintf("LB %04x", addr))
	return uint8(d.regs[addr&^1])
}

func (d *byteDev) StoreByte(addr uint16, v uint8) {
	d.log = append(d.log, fmt.Sprintf("SB %04x %02x", addr, v))
	d.regs[addr&^1] = uint16(v)
}

// bus is the access surface both dispatchers share.
type bus interface {
	LoadWord(addr uint16) uint16
	StoreWord(addr uint16, v uint16)
	LoadByte(addr uint16) uint8
	StoreByte(addr uint16, v uint8)
}

// linearSpace is the reference bus semantics the dispatch tables are
// checked against: every access scans the mappings in order, and an
// address no mapping claims is plain memory unless the layout leaves it
// unmapped. Every plain store marks its 256-byte page in written.
type linearSpace struct {
	layout        Layout
	ram           [Size]byte
	maps          []Mapping
	busErrors     int
	handlerStores uint64
	written       [Size / 256]bool
}

func (s *linearSpace) lookup(addr uint16) (h Handler, plain bool) {
	for _, m := range s.maps {
		if addr >= m.Start && addr <= m.End {
			return m.Handler, false
		}
	}
	return nil, s.layout.RegionOf(addr) != RegionUnmapped
}

func (s *linearSpace) LoadWord(addr uint16) uint16 {
	addr = align(addr)
	h, plain := s.lookup(addr)
	if h != nil {
		return h.LoadWord(addr)
	}
	if !plain {
		s.busErrors++
		return 0xFFFF
	}
	return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
}

func (s *linearSpace) StoreWord(addr uint16, v uint16) {
	addr = align(addr)
	h, plain := s.lookup(addr)
	if h != nil {
		s.handlerStores++
		h.StoreWord(addr, v)
		return
	}
	if !plain {
		s.busErrors++
		return
	}
	s.ram[addr] = byte(v)
	s.ram[addr+1] = byte(v >> 8)
	s.written[addr/256] = true
}

func (s *linearSpace) LoadByte(addr uint16) uint8 {
	h, plain := s.lookup(addr)
	if h != nil {
		if bh, ok := h.(ByteHandler); ok {
			return bh.LoadByte(addr)
		}
		w := h.LoadWord(align(addr))
		if addr&1 != 0 {
			return uint8(w >> 8)
		}
		return uint8(w)
	}
	if !plain {
		s.busErrors++
		return 0xFF
	}
	return s.ram[addr]
}

func (s *linearSpace) StoreByte(addr uint16, v uint8) {
	h, plain := s.lookup(addr)
	if h != nil {
		s.handlerStores++
		if bh, ok := h.(ByteHandler); ok {
			bh.StoreByte(addr, v)
			return
		}
		w := h.LoadWord(align(addr))
		if addr&1 != 0 {
			w = w&0x00FF | uint16(v)<<8
		} else {
			w = w&0xFF00 | uint16(v)
		}
		h.StoreWord(align(addr), w)
		return
	}
	if !plain {
		s.busErrors++
		return
	}
	s.ram[addr] = v
	s.written[addr/256] = true
}

// diffPair is a table-dispatch Space and the linear-scan reference with
// identical mappings, plus their handlers' logs (index 0 is the Space,
// 1 the reference).
type diffPair struct {
	space *Space
	ref   *linearSpace
	words [2]*wordDev
	bytes [2]*byteDev
}

// wordSpan/byteSpan place one word-only and one byte-capable handler in
// the peripheral window, with ranges chosen so accesses can straddle
// both ends (plain RAM below, plain RAM above).
const (
	wordLo, wordHi = 0x0100, 0x0113
	byteLo, byteHi = 0x0120, 0x0125
)

func newDiffPair(t *testing.T) *diffPair {
	t.Helper()
	p := &diffPair{}
	for i := range p.words {
		p.words[i] = newWordDev()
		p.bytes[i] = &byteDev{wordDev: *newWordDev()}
	}
	p.space = MustNewSpace(DefaultLayout(),
		Mapping{wordLo, wordHi, p.words[0]}, Mapping{byteLo, byteHi, p.bytes[0]})
	p.ref = &linearSpace{
		layout: DefaultLayout(),
		maps:   []Mapping{{wordLo, wordHi, p.words[1]}, {byteLo, byteHi, p.bytes[1]}},
	}
	return p
}

// writtenPages lists the pages s has marked written, in order.
func writtenPages(s *Space) []int {
	var pages []int
	for p := 0; p < Size/256; p++ {
		if s.written[p/64]&(1<<(p%64)) != 0 {
			pages = append(pages, p)
		}
	}
	return pages
}

// compare asserts every observable of the two dispatchers is identical.
func (p *diffPair) compare(t *testing.T, what string) {
	t.Helper()
	a, b := p.space, p.ref
	if a.BusErrors != b.busErrors {
		t.Errorf("%s: BusErrors %d (table) vs %d (linear)", what, a.BusErrors, b.busErrors)
	}
	if a.HandlerStores() != b.handlerStores {
		t.Errorf("%s: HandlerStores %d vs %d", what, a.HandlerStores(), b.handlerStores)
	}
	var want []int
	for page, w := range b.written {
		if w {
			want = append(want, page)
		}
	}
	if got := writtenPages(a); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: written pages diverged:\n table: %x\nlinear: %x", what, got, want)
	}
	if got, want := fmt.Sprint(p.words[0].log), fmt.Sprint(p.words[1].log); got != want {
		t.Errorf("%s: word-handler log diverged:\n table: %s\nlinear: %s", what, got, want)
	}
	if got, want := fmt.Sprint(p.bytes[0].log), fmt.Sprint(p.bytes[1].log); got != want {
		t.Errorf("%s: byte-handler log diverged:\n table: %s\nlinear: %s", what, got, want)
	}
	for addr := 0; addr < Size; addr++ {
		if a.ram[addr] != b.ram[addr] {
			t.Errorf("%s: ram[0x%04x] = %02x vs %02x", what, addr, a.ram[addr], b.ram[addr])
			break
		}
	}
}

// both runs the same access on both dispatchers and asserts equal
// results.
func (p *diffPair) both(t *testing.T, what string, f func(s bus) uint16) {
	t.Helper()
	va := f(p.space)
	vb := f(p.ref)
	if va != vb {
		t.Errorf("%s: value %04x (table) vs %04x (linear)", what, va, vb)
	}
}

// TestDispatchDifferentialTargeted drives the access shapes the page
// table must get exactly right — handler-boundary straddles, byte
// access synthesized onto word-only handlers, unmapped holes with their
// bus-error accounting, and plain stores with the pages they mark —
// through the Space and the linear-scan reference and requires
// identical observables.
func TestDispatchDifferentialTargeted(t *testing.T) {
	p := newDiffPair(t)
	layout := DefaultLayout()
	hole := layout.SecureDataEnd + 0x100 // inside the big unmapped hole

	cases := []struct {
		name string
		f    func(s bus) uint16
	}{
		// Word access at each edge of the word-only handler, including
		// odd addresses that align down into/out of the range.
		{"LW at handler start", func(s bus) uint16 { return s.LoadWord(wordLo) }},
		{"LW at handler end-1", func(s bus) uint16 { return s.LoadWord(wordHi - 1) }},
		{"LW odd inside", func(s bus) uint16 { return s.LoadWord(wordLo + 3) }},
		{"LW odd at end straddles out", func(s bus) uint16 { return s.LoadWord(wordHi) }},
		{"LW just below", func(s bus) uint16 { return s.LoadWord(wordLo - 2) }},
		{"LW just above", func(s bus) uint16 { return s.LoadWord(wordHi + 1) }},
		{"SW at start", func(s bus) uint16 { s.StoreWord(wordLo, 0x1234); return 0 }},
		{"SW odd aligns down", func(s bus) uint16 { s.StoreWord(wordLo+5, 0x5678); return 0 }},
		{"SW just below handler", func(s bus) uint16 { s.StoreWord(wordLo-2, 0x9ABC); return 0 }},
		// Byte access synthesized onto the word-only handler (RMW on
		// stores, half-word extract on loads).
		{"LB low byte of word dev", func(s bus) uint16 { return uint16(s.LoadByte(wordLo + 2)) }},
		{"LB high byte of word dev", func(s bus) uint16 { return uint16(s.LoadByte(wordLo + 3)) }},
		{"SB low byte of word dev", func(s bus) uint16 { s.StoreByte(wordLo+4, 0x42); return 0 }},
		{"SB high byte of word dev", func(s bus) uint16 { s.StoreByte(wordLo+5, 0x99); return 0 }},
		// Byte-capable handler takes byte accesses directly.
		{"LB byte dev", func(s bus) uint16 { return uint16(s.LoadByte(byteLo + 1)) }},
		{"SB byte dev", func(s bus) uint16 { s.StoreByte(byteLo, 0x7F); return 0 }},
		// The last byte of a handler range: a word access there aligns
		// down and stays inside; one byte past it leaves the handler.
		{"LB last handler byte", func(s bus) uint16 { return uint16(s.LoadByte(byteHi)) }},
		{"LB one past handler", func(s bus) uint16 { return uint16(s.LoadByte(byteHi + 1)) }},
		// Unmapped space: reads return all-ones and count bus errors,
		// writes are dropped and count bus errors.
		{"LW unmapped", func(s bus) uint16 { return s.LoadWord(hole) }},
		{"LB unmapped", func(s bus) uint16 { return uint16(s.LoadByte(hole + 1)) }},
		{"SW unmapped", func(s bus) uint16 { s.StoreWord(hole+2, 0xDEAD); return 0 }},
		{"SB unmapped", func(s bus) uint16 { s.StoreByte(hole+3, 0xEE); return 0 }},
		// Plain RAM, marking the pages it writes.
		{"SW dmem", func(s bus) uint16 { s.StoreWord(layout.DMEMStart+0x10, 0xBEEF); return 0 }},
		{"SB dmem", func(s bus) uint16 { s.StoreByte(layout.DMEMStart+0x13, 0x5A); return 0 }},
		{"LW dmem", func(s bus) uint16 { return s.LoadWord(layout.DMEMStart + 0x10) }},
		{"SW top of memory", func(s bus) uint16 { s.StoreWord(0xFFFE, 0xF00D); return 0 }},
		{"LW top of memory", func(s bus) uint16 { return s.LoadWord(0xFFFF) }},
		// Unmapped periph-window addresses fall through to backing RAM.
		{"SW unclaimed periph addr", func(s bus) uint16 { s.StoreWord(0x01F0, 0xCAFE); return 0 }},
		{"LW unclaimed periph addr", func(s bus) uint16 { return s.LoadWord(0x01F0) }},
	}
	for _, tc := range cases {
		p.both(t, tc.name, tc.f)
		p.compare(t, tc.name)
	}
	if p.space.BusErrors == 0 {
		t.Error("targeted cases never hit unmapped space; bus-error accounting untested")
	}
	if p.space.HandlerStores() == 0 {
		t.Error("targeted cases never stored to a handler")
	}
	if n := WrittenPages(p.space); n < 3 {
		t.Errorf("targeted cases marked %d pages, want the DMEM, top and peripheral-window pages", n)
	}
}

// TestDispatchDifferentialRandom hammers the Space and the linear-scan
// reference with the same pseudorandom access stream across the whole
// address space.
func TestDispatchDifferentialRandom(t *testing.T) {
	p := newDiffPair(t)
	rng := rand.New(rand.NewSource(0xE111D))
	for i := 0; i < 20000; i++ {
		addr := uint16(rng.Intn(Size))
		v := uint16(rng.Uint32())
		switch rng.Intn(4) {
		case 0:
			p.both(t, fmt.Sprintf("op%d LW %04x", i, addr), func(s bus) uint16 { return s.LoadWord(addr) })
		case 1:
			p.both(t, fmt.Sprintf("op%d LB %04x", i, addr), func(s bus) uint16 { return uint16(s.LoadByte(addr)) })
		case 2:
			p.both(t, fmt.Sprintf("op%d SW %04x", i, addr), func(s bus) uint16 { s.StoreWord(addr, v); return 0 })
		case 3:
			p.both(t, fmt.Sprintf("op%d SB %04x", i, addr), func(s bus) uint16 { s.StoreByte(addr, uint8(v)); return 0 })
		}
		if t.Failed() {
			t.Fatalf("diverged at op %d", i)
		}
	}
	p.compare(t, "after random stream")
	if p.space.BusErrors == 0 {
		t.Error("random stream never hit unmapped space")
	}
	plainPages := 0
	for page := 0; page < Size/256; page++ {
		for a := page * 256; a < page*256+256; a++ {
			if p.space.table.plain[a] {
				plainPages++
				break
			}
		}
	}
	if n := WrittenPages(p.space); n != plainPages {
		t.Errorf("random stream marked %d pages, want all %d that hold plain memory", n, plainPages)
	}
}

// TestDispatchTableMatchesRegions cross-checks the table against the
// layout classifier for every address, and a mapped range against its
// handler index.
func TestDispatchTableMatchesRegions(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	for a := 0; a < Size; a++ {
		addr := uint16(a)
		wantPlain := s.Layout.RegionOf(addr) != RegionUnmapped
		if s.table.plain[addr] != wantPlain {
			t.Fatalf("plain[0x%04x] = %v, want %v (region %v)", addr, s.table.plain[addr], wantPlain, s.Layout.RegionOf(addr))
		}
		if s.table.hidx[addr] != 0 {
			t.Fatalf("hidx[0x%04x] = %d on a handler-free space", addr, s.table.hidx[addr])
		}
	}
	m := MustNewSpace(DefaultLayout(), Mapping{0x0040, 0x0047, newWordDev()})
	for a := 0x0040; a <= 0x0047; a++ {
		if m.table.plain[a] || m.table.hidx[a] != 1 {
			t.Fatalf("mapped address 0x%04x not routed to handler", a)
		}
	}
	if m.table.plain[0x003F] != true || m.table.plain[0x0048] != true {
		t.Fatal("mapping leaked outside its range")
	}
}

// TestDispatchDifferentialShared pins the sharing: spaces built with the same
// layout and ranges point at one table, whatever their handlers, and
// each still dispatches to its own handlers exactly as its linear-scan
// reference does; a space with a different map gets a table of its own
// and leaves the first spaces' dispatch as it was.
func TestDispatchDifferentialShared(t *testing.T) {
	a, b := newDiffPair(t), newDiffPair(t)
	if a.space.table != b.space.table {
		t.Fatal("two spaces with the same map built separate dispatch tables")
	}
	before := *a.space.table
	other := MustNewSpace(DefaultLayout(), Mapping{wordLo, wordHi + 2, newWordDev()})
	if other.table == a.space.table {
		t.Fatal("a space with a different map shares the first map's table")
	}
	if *a.space.table != before {
		t.Fatal("building a space with another map changed the shared table")
	}
	if i := other.table.hidx[wordHi+2]; i != 1 {
		t.Fatalf("other map: hidx[0x%04x] = %d, want 1", wordHi+2, i)
	}
	if a.space.table.hidx[wordHi+2] != 0 || !a.space.table.plain[wordHi+2] {
		t.Fatalf("shared map: 0x%04x is not plain", wordHi+2)
	}
	rng := rand.New(rand.NewSource(0x5A4ED))
	for i := 0; i < 4000; i++ {
		addr := uint16(wordLo - 8 + rng.Intn(byteHi-wordLo+16))
		v := uint16(rng.Uint32())
		for _, p := range []*diffPair{a, b} {
			switch i % 4 {
			case 0:
				p.both(t, "LW", func(s bus) uint16 { return s.LoadWord(addr) })
			case 1:
				p.both(t, "LB", func(s bus) uint16 { return uint16(s.LoadByte(addr)) })
			case 2:
				p.both(t, "SW", func(s bus) uint16 { s.StoreWord(addr, v+uint16(i)); return 0 })
			case 3:
				p.both(t, "SB", func(s bus) uint16 { s.StoreByte(addr, uint8(v)); return 0 })
			}
		}
	}
	a.compare(t, "first space sharing the table")
	b.compare(t, "second space sharing the table")
	if a.space.HandlerStores() == 0 || b.space.HandlerStores() == 0 {
		t.Error("the stream never stored to a handler")
	}

	// Spaces built at once from several goroutines, as fleet workers
	// build machines, with a map no other test uses: one table for all.
	spaces := make([]*Space, 4)
	var wg sync.WaitGroup
	for i := range spaces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spaces[i] = MustNewSpace(DefaultLayout(), Mapping{0x0180, 0x0183, newWordDev()})
		}()
	}
	wg.Wait()
	for _, s := range spaces[1:] {
		if s.table != spaces[0].table {
			t.Fatal("spaces built concurrently with the same map got separate tables")
		}
	}
}

// TestNewSpaceRejectsBadMaps pins the map validation NewSpace does
// before it takes or builds a table.
func TestNewSpaceRejectsBadMaps(t *testing.T) {
	dev := newWordDev()
	for _, c := range []struct {
		name string
		maps []Mapping
		want string
	}{
		{"overlapping", []Mapping{{0x0020, 0x002F, dev}, {0x0028, 0x0030, dev}},
			"mem: mapping 0x0028..0x0030 overlaps 0x0020..0x002f"},
		{"outside the peripheral window", []Mapping{{0x0300, 0x0310, dev}},
			"mem: mapping 0x0300..0x0310 outside peripheral window"},
		{"straddling the window's end", []Mapping{{0x01F0, 0x0200, dev}},
			"mem: mapping 0x01f0..0x0200 outside peripheral window"},
		{"inverted", []Mapping{{0x0040, 0x0030, dev}},
			"mem: bad mapping 0x0040..0x0030"},
		{"256 mappings", twoByteMaps(256, dev),
			"mem: too many peripheral mappings (max 255)"},
	} {
		if _, err := NewSpace(DefaultLayout(), c.maps...); err == nil || err.Error() != c.want {
			t.Errorf("%s: NewSpace error %v, want %q", c.name, err, c.want)
		}
	}
	s, err := NewSpace(DefaultLayout(), twoByteMaps(255, dev)...)
	if err != nil {
		t.Fatalf("255 mappings: %v", err)
	}
	if i := s.table.hidx[0x01FC]; i != 255 {
		t.Fatalf("255th mapping: hidx = %d, want 255", i)
	}
}

// twoByteMaps returns n adjacent two-byte mappings from address 0.
func twoByteMaps(n int, h Handler) []Mapping {
	maps := make([]Mapping, n)
	for i := range maps {
		maps[i] = Mapping{uint16(2 * i), uint16(2*i + 1), h}
	}
	return maps
}
