package isa

// PageSlots is the number of even fetch addresses on one 256-byte page:
// slot k of page n holds the fetch address n<<8 | 2k. The decode cache
// stores its window a page at a time, the same pages the written-page
// mask marks (see cpu.DirectBus).
const PageSlots = 128

// Predecoded is an immutable decode cache for a fixed code image: the
// instructions of its window are decoded once, up front, and fused into
// basic blocks, so the CPU core can skip both the speculative three-word
// fetch and Decode on warm paths. Each cached address holds the block
// starting there (see Block), whose first op is that address's decode
// as its threaded-code lowering (see UOp): stepping one instruction runs
// that op, and the block executor runs the whole block, from the same
// slot. An instruction LowerUOp refuses stays uncached. Only the
// 256-byte pages of the window that hold at least one cached decode are
// stored, so a cache costs the code it holds, not the size of its
// window. A Predecoded is read-only after construction and therefore
// safe to share between any number of machines running byte-identical
// code — the per-ROM artifact the fleet runner builds once per
// application.
//
// Staleness is the caller's problem: the CPU core reads each machine's
// written-page mask (see cpu.DirectBus), so a decode whose fetch window
// touches a page written since the cache was installed re-decodes live,
// and a block is entered only when no page its fetch windows touch has
// been written.
type Predecoded struct {
	// page0 is the window's first page; pages[i] holds page page0+i,
	// and is nil when no address on it holds a cached decode.
	page0 uint16
	pages []*BlockPage
}

// Predecode decodes every even address in [start, end] using read to
// fetch words, then fuses the decodes into blocks (see BuildBlocks).
// Addresses that do not decode (data, padding), whose decode LowerUOp
// refuses (shapes that fault at run time, such as an immediate operand
// on rrc, where the live path raises the same fault at the same pc) or
// whose fetch window would wrap (the last two word slots of the address
// space) simply stay uncached and fall back to the live path at run
// time. A page of the window none of whose addresses is cached gets no
// storage.
//
// fetchable, when non-nil, restricts caching to addresses whose whole
// three-word fetch window it accepts. The live path speculatively reads
// all three words through the bus, so a window that strays into
// unmapped or peripheral space has observable side effects (bus-error
// accounting, handler reads) the cache would skip; such addresses must
// stay on the live path.
func Predecode(read func(addr uint16) uint16, start, end uint16, fetchable func(addr uint16) bool) *Predecoded {
	start &^= 1
	var decs []BlockOp
	for a := int(start); a <= int(min(end, 0xFFFB)); a += 2 {
		addr := uint16(a)
		// Most of a window is empty flash or data: the first word alone
		// rules it out, before the fetchable checks, the extension-word
		// reads and Decode's error allocation.
		w := read(addr)
		if !opensInstruction(w) {
			continue
		}
		if fetchable != nil && !(fetchable(addr) && fetchable(addr+2) && fetchable(addr+4)) {
			continue
		}
		in, _, err := Decode([]uint16{w, read(addr + 2), read(addr + 4)})
		if err != nil {
			continue
		}
		u, ok := LowerUOp(addr, in)
		if !ok {
			continue
		}
		decs = append(decs, BlockOp{U: u, PC: addr, Next: addr + in.Size(), Cycles: uint16(Cycles(in)), Mem: !opPure(&u)})
	}
	return fuse(start>>8, int(end>>8-start>>8)+1, decs)
}

// Table exposes the window's first page and the page index for callers
// that inline the lookup (the CPU core): pages[i] holds page page0+i, or
// is nil when no address on that page is cached, and slot
// pc>>1%PageSlots of a page holds the block starting at fetch address pc
// (Ops == nil when none does). Pages are shared and read-only.
func (p *Predecoded) Table() (page0 uint16, pages []*BlockPage) {
	if p == nil {
		return 0, nil
	}
	return p.page0, p.pages
}

// At returns the block starting at the fetch address pc, whose first op
// is pc's decode, or nil when pc is outside the window, odd (a
// misaligned fetch takes the live path, which models the bus's
// A0-ignore), or did not decode at predecode time. The block is shared
// and read-only.
func (p *Predecoded) At(pc uint16) *Block {
	if p == nil || pc&1 != 0 {
		return nil
	}
	i := int(pc>>8) - int(p.page0)
	if i < 0 || i >= len(p.pages) || p.pages[i] == nil {
		return nil
	}
	if b := &p.pages[i][pc>>1%PageSlots]; b.Ops != nil {
		return b
	}
	return nil
}

// Len reports how many addresses hold a cached decode, each the start
// of a block (for tests and diagnostics).
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
			if pg[i].Ops != nil {
				n++
			}
		}
	}
	return n
}

// slot returns the table slot of the fetch address pc, in the window,
// allocating its page on first use.
func (p *Predecoded) slot(pc uint16) *Block {
	pg := &p.pages[pc>>8-p.page0]
	if *pg == nil {
		*pg = new(BlockPage)
	}
	return &(*pg)[pc>>1%PageSlots]
}
