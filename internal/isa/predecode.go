package isa

import "sync"

// Entry caches one decode at a fixed fetch address as its threaded-code
// lowering (see UOp), with the instruction's size and cycle figures.
// Entries are read-only after construction; callers must not mutate
// them.
type Entry struct {
	U      UOp
	Size   uint16
	Cycles uint16
	OK     bool
}

// PageSlots is the number of even fetch addresses on one 256-byte page:
// slot k of page n holds the fetch address n<<8 | 2k. The decode cache
// and the block table store their window a page at a time, the same
// pages the written-page mask marks (see cpu.DirectBus).
const PageSlots = 128

// EntryPage holds the cached decodes of one 256-byte page, indexed by
// slot (see PageSlots).
type EntryPage [PageSlots]Entry

// Predecoded is an immutable decode cache for a fixed code image: the
// instructions of its window are decoded once, up front, so the CPU core
// can skip both the speculative three-word fetch and Decode on warm
// paths. A cached decode is its threaded-code lowering (see UOp), so the
// warm path skips the per-step format switch and operand resolution
// too; an instruction LowerUOp refuses stays uncached. Only the 256-byte
// pages of the window that hold at least one cached decode are stored,
// so a cache costs the code it holds, not the size of its window. A
// Predecoded is read-only after construction and therefore safe to
// share between any number of machines running byte-identical code —
// the per-ROM artifact the fleet runner builds once per application.
//
// Staleness is the caller's problem: the CPU core reads each machine's
// written-page mask (see cpu.DirectBus), so an entry whose fetch window
// touches a page written since the cache was installed re-decodes live.
type Predecoded struct {
	// page0 is the window's first page; pages[i] holds page page0+i,
	// and is nil when no address on it holds a cached decode.
	page0 uint16
	pages []*EntryPage

	// blkOnce/blk lazily build the basic-block table fused from the
	// entries (see BuildBlocks). Keeping the blocks on the cache means
	// every machine sharing this per-ROM artifact also shares one block
	// table, built at most once, concurrency-safe.
	blkOnce sync.Once
	blk     *Blocks
}

// Predecode decodes every even address in [start, end] using read to
// fetch words. Addresses that do not decode (data, padding), whose
// decode LowerUOp refuses (shapes that fault at run time, such as an
// immediate operand on rrc, where the live path raises the same fault
// at the same pc) or whose fetch window would wrap (the last two word
// slots of the address space) simply stay uncached and fall back to the
// live path at run time. A page of the window none of whose addresses
// is cached gets no storage.
//
// fetchable, when non-nil, restricts caching to addresses whose whole
// three-word fetch window it accepts. The live path speculatively reads
// all three words through the bus, so a window that strays into
// unmapped or peripheral space has observable side effects (bus-error
// accounting, handler reads) the cache would skip; such addresses must
// stay on the live path.
func Predecode(read func(addr uint16) uint16, start, end uint16, fetchable func(addr uint16) bool) *Predecoded {
	start &^= 1
	p := &Predecoded{page0: start >> 8}
	if end < start {
		return p
	}
	p.pages = make([]*EntryPage, end>>8-start>>8+1)
	for a := int(start); a <= int(end); a += 2 {
		addr := uint16(a)
		if addr >= 0xFFFC {
			continue
		}
		if fetchable != nil && !(fetchable(addr) && fetchable(addr+2) && fetchable(addr+4)) {
			continue
		}
		words := [3]uint16{read(addr), read(addr + 2), read(addr + 4)}
		if !opensInstruction(words[0]) {
			continue // empty flash: skip Decode's error allocation
		}
		in, _, err := Decode(words[:])
		if err != nil {
			continue
		}
		u, ok := LowerUOp(addr, in)
		if !ok {
			continue
		}
		pg := &p.pages[addr>>8-p.page0]
		if *pg == nil {
			*pg = new(EntryPage)
		}
		(*pg)[addr>>1%PageSlots] = Entry{U: u, Size: in.Size(), Cycles: uint16(Cycles(in)), OK: true}
	}
	return p
}

// Table exposes the window's first page and the page index for callers
// that inline the lookup (the CPU core's warm path): pages[i] holds page
// page0+i, or is nil when no address on that page is cached, and slot
// pc>>1%PageSlots of a page holds the entry for fetch address pc. Pages
// are shared and read-only; an entry is valid only when its OK flag is
// set.
func (p *Predecoded) Table() (page0 uint16, pages []*EntryPage) {
	if p == nil {
		return 0, nil
	}
	return p.page0, p.pages
}

// EntryAt returns the cached entry for a fetch at addr, or nil when
// addr is outside the window, odd (a misaligned fetch takes the live
// path, which models the bus's A0-ignore), or did not decode at
// predecode time. The entry is shared and read-only.
func (p *Predecoded) EntryAt(addr uint16) *Entry {
	if p == nil || addr&1 != 0 {
		return nil
	}
	i := int(addr>>8) - int(p.page0)
	if i < 0 || i >= len(p.pages) || p.pages[i] == nil {
		return nil
	}
	if e := &p.pages[i][addr>>1%PageSlots]; e.OK {
		return e
	}
	return nil
}

// Blocks returns the basic-block table fused from this cache's entries,
// building it on first use. The table is immutable and shared by every
// caller — the per-ROM artifact the fleet runner hands to each machine
// alongside the decode cache itself.
func (p *Predecoded) Blocks() *Blocks {
	if p == nil {
		return nil
	}
	p.blkOnce.Do(func() { p.blk = BuildBlocks(p) })
	return p.blk
}

// Len reports how many addresses hold a cached decode (for tests and
// diagnostics).
func (p *Predecoded) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, pg := range p.pages {
		if pg == nil {
			continue
		}
		for i := range pg {
			if pg[i].OK {
				n++
			}
		}
	}
	return n
}
