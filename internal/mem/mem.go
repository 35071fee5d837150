// Package mem models the 64 KB unified (von Neumann) address space of an
// openMSP430-class device: data memory (SRAM), program memory (flash),
// the EILID secure ROM and secure data regions, the peripheral window and
// the interrupt vector table. It provides the byte/word bus semantics the
// CPU core uses (word accesses are even-aligned, little-endian) plus a
// region map that the CASU/EILID hardware monitor derives its access
// policies from.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Size of the MSP430 address space in bytes.
const Size = 0x10000

// pageShift sizes the pages Space marks as written: 256 bytes, so the
// 64 KiB slab is 256 pages and the mask is four words. The CPU's direct
// stores mark, and its decode-cache staleness checks read, with the same
// shift (cpu.DirectBus).
const pageShift = 8

// pageMask is one bit per page of the slab, set by every write to it.
type pageMask = [Size >> pageShift / 64]uint64

// markPage sets the bit of the page holding addr.
func markPage(m *pageMask, addr uint16) {
	m[addr>>pageShift>>6] |= 1 << (addr >> pageShift & 63)
}

// markPages sets the bits of every page the n bytes at addr touch.
func markPages(m *pageMask, addr uint16, n int) {
	for p := int(addr) >> pageShift; p <= (int(addr)+n-1)>>pageShift; p++ {
		m[p>>6] |= 1 << (p & 63)
	}
}

// Region classifies an address for the hardware monitor.
type Region uint8

const (
	// RegionPeriph is the memory-mapped peripheral window.
	RegionPeriph Region = iota
	// RegionDMEM is ordinary data memory (SRAM): writable, never executable.
	RegionDMEM
	// RegionSecureData is the EILID-exclusive secure DMEM holding the
	// shadow stack and the function-entry table. Only EILIDsw (code in
	// RegionSecureROM) may touch it.
	RegionSecureData
	// RegionPMEM is user program memory (flash): executable, immutable
	// outside a CASU secure update.
	RegionPMEM
	// RegionSecureROM holds EILIDsw. Immutable always; enterable only at
	// the architecturally blessed entry point.
	RegionSecureROM
	// RegionIVT is the interrupt vector table (top 32 bytes of flash).
	RegionIVT
	// RegionUnmapped is everything else; any access is a bus error.
	RegionUnmapped
)

func (r Region) String() string {
	switch r {
	case RegionPeriph:
		return "peripheral"
	case RegionDMEM:
		return "dmem"
	case RegionSecureData:
		return "secure-dmem"
	case RegionPMEM:
		return "pmem"
	case RegionSecureROM:
		return "secure-rom"
	case RegionIVT:
		return "ivt"
	case RegionUnmapped:
		return "unmapped"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// Layout is the device memory map. Bounds are inclusive start, inclusive
// end (matching datasheet convention).
type Layout struct {
	PeriphStart, PeriphEnd         uint16
	DMEMStart, DMEMEnd             uint16
	SecureDataStart, SecureDataEnd uint16
	PMEMStart, PMEMEnd             uint16
	SecureROMStart, SecureROMEnd   uint16
	IVTStart                       uint16 // always runs to 0xFFFF
}

// DefaultLayout mirrors the prototype in the paper: 2 KB SRAM, 256 B of
// secure data (shadow stack + function table), 6 KB user flash, 1.5 KB
// secure ROM for EILIDsw, IVT at the top.
func DefaultLayout() Layout {
	return Layout{
		PeriphStart: 0x0000, PeriphEnd: 0x01FF,
		DMEMStart: 0x0200, DMEMEnd: 0x09FF,
		SecureDataStart: 0x0A00, SecureDataEnd: 0x0AFF,
		PMEMStart: 0xE000, PMEMEnd: 0xF7FF,
		SecureROMStart: 0xF800, SecureROMEnd: 0xFDFF,
		IVTStart: 0xFFE0,
	}
}

// Validate checks that the layout regions are sane and non-overlapping in
// the order the default map uses.
func (l Layout) Validate() error {
	type span struct {
		name       string
		start, end uint32
	}
	spans := []span{
		{"periph", uint32(l.PeriphStart), uint32(l.PeriphEnd)},
		{"dmem", uint32(l.DMEMStart), uint32(l.DMEMEnd)},
		{"secure-dmem", uint32(l.SecureDataStart), uint32(l.SecureDataEnd)},
		{"pmem", uint32(l.PMEMStart), uint32(l.PMEMEnd)},
		{"secure-rom", uint32(l.SecureROMStart), uint32(l.SecureROMEnd)},
		{"ivt", uint32(l.IVTStart), 0xFFFF},
	}
	for i, s := range spans {
		if s.start > s.end {
			return fmt.Errorf("mem: %s region start 0x%04x after end 0x%04x", s.name, s.start, s.end)
		}
		if i > 0 && spans[i-1].end >= s.start {
			return fmt.Errorf("mem: %s region overlaps %s", s.name, spans[i-1].name)
		}
	}
	return nil
}

// RegionOf classifies an address.
func (l Layout) RegionOf(addr uint16) Region {
	switch {
	case addr >= l.IVTStart:
		return RegionIVT
	case addr >= l.SecureROMStart && addr <= l.SecureROMEnd:
		return RegionSecureROM
	case addr >= l.PMEMStart && addr <= l.PMEMEnd:
		return RegionPMEM
	case addr >= l.SecureDataStart && addr <= l.SecureDataEnd:
		return RegionSecureData
	case addr >= l.DMEMStart && addr <= l.DMEMEnd:
		return RegionDMEM
	case addr >= l.PeriphStart && addr <= l.PeriphEnd:
		return RegionPeriph
	}
	return RegionUnmapped
}

// InSecureROM reports whether addr (typically a PC value) is inside the
// EILIDsw region.
func (l Layout) InSecureROM(addr uint16) bool {
	return addr >= l.SecureROMStart && addr <= l.SecureROMEnd
}

// Executable reports whether instructions may be fetched from addr under
// the W⊕X policy (program memory, secure ROM and the IVT-resident reset
// path only).
func (l Layout) Executable(addr uint16) bool {
	switch l.RegionOf(addr) {
	case RegionPMEM, RegionSecureROM:
		return true
	}
	return false
}

// Handler services memory-mapped peripheral accesses. Addresses passed in
// are absolute. Byte accesses are synthesized from word accesses by the
// Space when a handler does not implement ByteHandler.
type Handler interface {
	LoadWord(addr uint16) uint16
	StoreWord(addr uint16, v uint16)
}

// ByteHandler is an optional refinement for peripherals with byte-wide
// registers (GPIO ports).
type ByteHandler interface {
	Handler
	LoadByte(addr uint16) uint8
	StoreByte(addr uint16, v uint8)
}

// QuietLoader is an optional Handler refinement that lets block
// execution run through register reads. QuietLoad(addr) reports that a
// load the handler receives at addr (its LoadWord or LoadByte
// argument), made before the peripheral's next event
// (periph.Cycled.NextEvent), changes nothing beyond lazy catch-up and
// raises no interrupt request. It must be static: a function of the
// address alone. Handlers without the method are loud everywhere.
type QuietLoader interface {
	QuietLoad(addr uint16) bool
}

// StillHolder is an optional Handler refinement that lets block
// execution skip the repeats of a status poll. HoldsStill(addr) reports
// that the value a load at addr returns changes only at the
// peripheral's next event (periph.Cycled.NextEvent) or through an
// access that is not a quiet load, so repeated quiet loads before that
// event all read the same value. It must be static, like QuietLoad.
// Handlers without the method hold nothing still.
type StillHolder interface {
	HoldsStill(addr uint16) bool
}

// Mapping attaches a peripheral handler to the inclusive address range
// [Start, End], which must lie inside the layout's peripheral window.
type Mapping struct {
	Start, End uint16
	Handler    Handler
}

// Space is the device memory: a 64 KB backing slab plus the peripheral
// map it was built with. It implements the bus the CPU core drives.
// Space performs no protection checks itself — protection is the
// hardware monitor's job — but it records the last bus error (access to
// unmapped space) for tests.
//
// Dispatch is O(1): two per-address tables classify every address as
// plain backing memory, a peripheral handler, or unmapped space. They
// depend only on the layout and the mapped ranges, which are fixed at
// NewSpace, so every space built with the same layout and ranges points
// at one read-only table built once per process; only the handlers are
// the space's own. dispatch_test.go checks the tables against a linear
// scan of the mappings, the reference semantics.
//
// Every write to the backing array marks its 256-byte page in a mask:
// the stores, LoadImage, the volatile clear in Reset, and the CPU's
// direct stores through Direct. The mask is the one record of what was
// written since the space last matched a known image: its base
// snapshot after Snapshot or Restore, an installed decode cache's
// image after Settle. Restore reads it to copy back only the pages
// written since, and the CPU reads it to tell a stale cached decode
// (cpu.DirectBus).
//
// A sealed space holds its slab (an allocation of its own, exactly
// 64 KiB), its handlers and, through its base, a snapshot of only the
// pages that hold a byte; the dispatch table is shared.
type Space struct {
	Layout   Layout
	ram      *[Size]byte
	table    *dispatch
	handlers []Handler // handlers[i] serves the addresses table.hidx marks i+1

	// written marks the pages of ram changed since the last Snapshot,
	// Restore or Settle; base is the snapshot ram equalled then (nil
	// after Settle).
	written pageMask
	base    *Snapshot

	// handlerStores counts stores that reached a peripheral handler; the
	// machine's run loop uses it to notice that a register write may have
	// moved a peripheral's next-event deadline.
	handlerStores uint64

	// BusErrors counts accesses to unmapped addresses (reads return
	// 0xFFFF / 0xFF, writes are dropped), mirroring openMSP430's
	// behaviour of not trapping them.
	BusErrors int
}

// dispatch routes every address of one layout and peripheral map. It is
// read-only once built and shared by every space built with the same
// layout and ranges.
type dispatch struct {
	// plain marks addresses that dispatch straight to the backing slab:
	// inside a mapped region, with no peripheral handler attached.
	plain [Size]bool
	// hidx maps an address to 1+index of its mapping (0 = none).
	hidx [Size]uint8
}

// dispatchKey names a dispatch table: a layout and the bounds of its
// mappings, four bytes each, in map order.
type dispatchKey struct {
	layout Layout
	ranges string
}

// dispatches interns one table per whole peripheral map, so the fleet
// runner's bulk machine construction builds the 64 K classification once
// per process rather than once per space. Only whole maps are interned:
// a process holds one table per distinct map it built a space with.
var (
	dispatchMu sync.Mutex
	dispatches = map[dispatchKey]*dispatch{}
)

// dispatchFor returns the shared table for a layout and a validated
// peripheral map, building it on first use.
func dispatchFor(l Layout, maps []Mapping) *dispatch {
	ranges := make([]byte, 0, 64)
	for _, m := range maps {
		ranges = append(ranges, byte(m.Start), byte(m.Start>>8), byte(m.End), byte(m.End>>8))
	}
	key := dispatchKey{l, string(ranges)}
	dispatchMu.Lock()
	defer dispatchMu.Unlock()
	if d := dispatches[key]; d != nil {
		return d
	}
	d := new(dispatch)
	// Every mapped region is plain memory unless a handler claims it.
	for _, span := range [][2]uint16{
		{l.PeriphStart, l.PeriphEnd},
		{l.DMEMStart, l.DMEMEnd},
		{l.SecureDataStart, l.SecureDataEnd},
		{l.PMEMStart, l.PMEMEnd},
		{l.SecureROMStart, l.SecureROMEnd},
		{l.IVTStart, 0xFFFF},
	} {
		for a := int(span[0]); a <= int(span[1]); a++ {
			d.plain[a] = true
		}
	}
	for i, m := range maps {
		for a := int(m.Start); a <= int(m.End); a++ {
			d.hidx[a] = uint8(i + 1)
			d.plain[a] = false
		}
	}
	dispatches[key] = d
	return d
}

// NewSpace creates a Space with the given layout and peripheral map.
// Mappings must fall inside the peripheral window and must not overlap,
// and there may be at most 255 of them. The map is fixed for the
// space's life.
func NewSpace(l Layout, maps ...Mapping) (*Space, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(maps) > 255 {
		return nil, fmt.Errorf("mem: too many peripheral mappings (max 255)")
	}
	s := &Space{Layout: l, ram: new([Size]byte), handlers: make([]Handler, len(maps))}
	for i, m := range maps {
		if m.Start > m.End {
			return nil, fmt.Errorf("mem: bad mapping 0x%04x..0x%04x", m.Start, m.End)
		}
		if l.RegionOf(m.Start) != RegionPeriph || l.RegionOf(m.End) != RegionPeriph {
			return nil, fmt.Errorf("mem: mapping 0x%04x..0x%04x outside peripheral window", m.Start, m.End)
		}
		for _, o := range maps[:i] {
			if m.Start <= o.End && o.Start <= m.End {
				return nil, fmt.Errorf("mem: mapping 0x%04x..0x%04x overlaps 0x%04x..0x%04x", m.Start, m.End, o.Start, o.End)
			}
		}
		s.handlers[i] = m.Handler
	}
	s.table = dispatchFor(l, maps)
	return s, nil
}

// MustNewSpace is NewSpace for known-good layouts and maps.
func MustNewSpace(l Layout, maps ...Mapping) *Space {
	s, err := NewSpace(l, maps...)
	if err != nil {
		panic(err)
	}
	return s
}

// HandlerStores returns a generation counter incremented by every store
// that reached a peripheral handler. The machine's batched run loop
// compares it between instructions to catch register writes that move a
// peripheral's next-event deadline.
func (s *Space) HandlerStores() uint64 { return s.handlerStores }

// Direct exposes the backing slab, its written-page mask and the
// plain-memory dispatch flags so the CPU core can inline plain-RAM
// accesses without an interface call, and read the mask to tell which
// cached decodes a write may have staled. The slab and the mask alias
// live Space state, the mask the one every write path marks; the flags
// are the shared read-only table, fixed for the space's life and never
// to be written through. All three pointers stay valid for the space's
// life, so a caller may take them once, at construction. Callers must
// reproduce Space semantics exactly: a fast store writes the slab and
// sets bit addr>>8 of the mask (word addr>>14, bit addr>>8&63). A store
// that skips the mark survives the next Restore and leaves stale code
// running.
func (s *Space) Direct() (slab *[Size]byte, written *[4]uint64, plain *[Size]bool) {
	return s.ram, &s.written, &s.table.plain
}

// QuietLoad reports whether a load at addr (a byte load when byteWide,
// else a word load of the aligned word) reaches a handler whose
// QuietLoad calls it quiet, asking the handler about the address its
// load method will receive. Plain and unmapped addresses report false.
// The CPU's block planner reads it once per constant-address operand;
// the answer cannot change, since the map is fixed at NewSpace.
func (s *Space) QuietLoad(addr uint16, byteWide bool) bool {
	h, a := s.loadHandler(addr, byteWide)
	q, ok := h.(QuietLoader)
	return ok && q.QuietLoad(a)
}

// HoldsStill is QuietLoad's twin for StillHolder: whether the load
// reaches a handler that holds the value it returns still until its
// next event. Plain and unmapped addresses report false.
func (s *Space) HoldsStill(addr uint16, byteWide bool) bool {
	h, a := s.loadHandler(addr, byteWide)
	q, ok := h.(StillHolder)
	return ok && q.HoldsStill(a)
}

// loadHandler resolves a load at addr (byte-wide or of the aligned
// word) to the handler it reaches, nil for plain and unmapped
// addresses, and the address that handler's load method receives.
func (s *Space) loadHandler(addr uint16, byteWide bool) (Handler, uint16) {
	if !byteWide {
		addr = align(addr)
	}
	h, _ := s.lookup(addr)
	if _, bh := h.(ByteHandler); !bh {
		addr = align(addr)
	}
	return h, addr
}

// align forces word alignment the way the MSP430 bus does (A0 ignored).
func align(addr uint16) uint16 { return addr &^ 1 }

// lookup classifies addr: the handler attached there (nil when none)
// and whether the address is plain backing memory. Exactly one of
// (h != nil), plain, or unmapped holds.
func (s *Space) lookup(addr uint16) (h Handler, plain bool) {
	if i := s.table.hidx[addr]; i != 0 {
		return s.handlers[i-1], false
	}
	return nil, s.table.plain[addr]
}

// LoadWord reads a little-endian word. Odd addresses are aligned down.
func (s *Space) LoadWord(addr uint16) uint16 {
	addr = align(addr)
	if s.table.plain[addr] {
		return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
	}
	h, plain := s.lookup(addr)
	if h != nil {
		return h.LoadWord(addr)
	}
	if !plain {
		s.BusErrors++
		return 0xFFFF
	}
	return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
}

// StoreWord writes a little-endian word. Odd addresses are aligned down.
func (s *Space) StoreWord(addr uint16, v uint16) {
	addr = align(addr)
	h, plain := s.lookup(addr)
	if h != nil {
		s.handlerStores++
		h.StoreWord(addr, v)
		return
	}
	if !plain {
		s.BusErrors++
		return
	}
	s.ram[addr] = byte(v)
	s.ram[addr+1] = byte(v >> 8)
	markPage(&s.written, addr)
}

// LoadByte reads a byte.
func (s *Space) LoadByte(addr uint16) uint8 {
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
		s.BusErrors++
		return 0xFF
	}
	return s.ram[addr]
}

// StoreByte writes a byte.
func (s *Space) StoreByte(addr uint16, v uint8) {
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
		s.BusErrors++
		return
	}
	s.ram[addr] = v
	markPage(&s.written, addr)
}

// PeekWord reads a little-endian word straight from the backing array,
// bypassing peripheral handlers and bus-error accounting — a debugger's
// (or predecoder's) view of memory with no side effects.
func (s *Space) PeekWord(addr uint16) uint16 {
	addr = align(addr)
	return uint16(s.ram[addr]) | uint16(s.ram[addr+1])<<8
}

// LoadImage copies raw bytes into the backing array starting at addr,
// bypassing peripheral mappings; it is the "flash programmer" used to
// install firmware before boot and by the secure-update path after
// authentication.
func (s *Space) LoadImage(addr uint16, data []byte) error {
	if int(addr)+len(data) > Size {
		return fmt.Errorf("mem: image of %d bytes at 0x%04x exceeds address space", len(data), addr)
	}
	copy(s.ram[addr:], data)
	markPages(&s.written, addr, len(data))
	return nil
}

// ReadRaw copies length bytes starting at addr out of the backing array,
// bypassing peripherals; used by tests and the attestation/update paths.
func (s *Space) ReadRaw(addr uint16, length int) []byte {
	if int(addr)+length > Size {
		length = Size - int(addr)
	}
	out := make([]byte, length)
	copy(out, s.ram[addr:int(addr)+length])
	return out
}

// Reset clears volatile memory (DMEM and secure DMEM) while preserving
// program memory, secure ROM and the IVT — the behaviour of a device
// reset as opposed to a reflash. This path runs on every monitor
// violation, so the volatile regions are cleared as whole slab ranges
// rather than byte-at-a-time.
func (s *Space) Reset() {
	dmem := int(s.Layout.DMEMEnd) - int(s.Layout.DMEMStart) + 1
	secure := int(s.Layout.SecureDataEnd) - int(s.Layout.SecureDataStart) + 1
	clear(s.ram[s.Layout.DMEMStart : int(s.Layout.DMEMEnd)+1])
	clear(s.ram[s.Layout.SecureDataStart : int(s.Layout.SecureDataEnd)+1])
	markPages(&s.written, s.Layout.DMEMStart, dmem)
	markPages(&s.written, s.Layout.SecureDataStart, secure)
}

// pageSize is the size of the pages Space marks and Snapshot keeps.
const pageSize = 1 << pageShift

// page is the bytes of one page of the slab.
type page = [pageSize]byte

// Snapshot is an immutable copy of a Space's restorable state: the
// pages of the backing slab that held a non-zero byte, an index saying
// which page each one is, and the bus-error count at capture time.
// Every other page was all zero. A firmware image fills 2 of the
// default layout's 256 pages (4–5 with the EILIDsw ROM), so a snapshot
// is a few hundred bytes to a few KiB, not 64 KiB. The dispatch state
// (layout, peripheral mappings, per-address tables) is not captured —
// it is construction-time state that Restore requires to be unchanged,
// which is what makes Restore a copy of the written pages instead of a
// re-zero and re-map.
type Snapshot struct {
	layout    Layout
	busErrors int
	// index[p] is 1+the position of page p in pages, or 0 when page p
	// was all zero.
	index [Size >> pageShift]uint16
	pages []page
}

// Snapshot captures the Space's current memory image and bus-error
// count: the pages that hold a non-zero byte, in one allocation. The
// fleet seals one per fully-constructed machine (post firmware load) so
// later jobs restore it instead of rebuilding. The new snapshot becomes
// the space's base, and the written-page mask is cleared: from here on
// it lists the pages that differ from the base. Clearing the mask also
// declares an installed decode cache fresh, so the caller asserts the
// image is the one the cache was built from, as core.Machine.Snapshot
// does by sealing before the first run.
func (s *Space) Snapshot() *Snapshot {
	snap := &Snapshot{layout: s.Layout, busErrors: s.BusErrors}
	var held pageMask
	n := 0
	for p := range snap.index {
		if *s.page(p) != (page{}) {
			markPage(&held, uint16(p<<pageShift))
			n++
		}
	}
	snap.pages = make([]page, 0, n)
	for p := range snap.index {
		if held[p>>6]&(1<<(p&63)) != 0 {
			snap.pages = append(snap.pages, *s.page(p))
			snap.index[p] = uint16(len(snap.pages))
		}
	}
	s.base = snap
	s.written = pageMask{}
	return snap
}

// page returns page p of the slab.
func (s *Space) page(p int) *page {
	return (*page)(s.ram[p<<pageShift:])
}

// restorePage returns page p of the slab to its bytes in snap.
func (s *Space) restorePage(snap *Snapshot, p int) {
	if i := snap.index[p]; i != 0 {
		*s.page(p) = snap.pages[i-1]
	} else {
		*s.page(p) = page{}
	}
}

// Restore returns the backing slab and bus-error count to a snapshot:
// the pages it holds are copied back and every other page is cleared.
// The peripheral mappings and dispatch tables stay in place (the
// snapshot asserts they are unchanged — it must come from a Space with
// the same layout). When snap is the space's base (the same pointer),
// only the pages marked written since the last Snapshot or Restore can
// differ from it, and only those are restored. Any other snapshot is
// restored over every page and becomes the base. Either way the mask is
// cleared, and with it the staleness of every cached decode: the
// restored bytes are, by construction, the image any installed decode
// cache was built from (core.Machine.Recycle restores the snapshot it
// sealed after installing the cache). Restore allocates nothing.
func (s *Space) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("mem: restore from nil snapshot")
	}
	if snap.layout != s.Layout {
		return fmt.Errorf("mem: snapshot layout does not match this space")
	}
	if snap == s.base {
		for w, m := range s.written {
			for ; m != 0; m &= m - 1 {
				s.restorePage(snap, w<<6|bits.TrailingZeros64(m))
			}
		}
	} else {
		for p := range snap.index {
			s.restorePage(snap, p)
		}
		s.base = snap
	}
	s.written = pageMask{}
	s.BusErrors = snap.busErrors
	return nil
}

// Settle declares the slab as it stands the image a decode cache was
// just built from (core.Machine.UsePredecoded calls it on install). The
// written-page mask is cleared, so from here on it lists the pages that
// may differ from the cache, and the base snapshot is dropped, because
// the mask no longer lists the pages that differ from it: the next
// Restore copies its snapshot whole and makes it the base. Settle
// allocates nothing.
func (s *Space) Settle() {
	s.written = pageMask{}
	s.base = nil
}

// VectorAddress returns the IVT slot address for interrupt line n
// (0..15); line 15 is the reset vector at 0xFFFE.
func (l Layout) VectorAddress(line int) uint16 {
	return l.IVTStart + uint16(line)*2
}

// ResetVector is the address of the reset vector slot.
func (l Layout) ResetVector() uint16 { return l.VectorAddress(15) }
