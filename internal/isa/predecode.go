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

// Predecoded is an immutable decode cache for a fixed code image: every
// even address in its window is decoded once, up front, so the CPU core
// can skip both the speculative three-word fetch and Decode on warm
// paths. A cached decode is its threaded-code lowering (see UOp), so the
// warm path skips the per-step format switch and operand resolution
// too; an instruction LowerUOp refuses stays uncached. A Predecoded is
// read-only after construction and therefore safe to share between any
// number of machines running byte-identical code — the per-ROM
// artifact the fleet runner builds once per application.
//
// Staleness is the caller's problem: the CPU core reads each machine's
// written-page mask (see cpu.DirectBus), so an entry whose fetch window
// touches a page written since the cache was installed re-decodes live.
type Predecoded struct {
	start   uint16
	entries []Entry

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
// live path at run time.
//
// fetchable, when non-nil, restricts caching to addresses whose whole
// three-word fetch window it accepts. The live path speculatively reads
// all three words through the bus, so a window that strays into
// unmapped or peripheral space has observable side effects (bus-error
// accounting, handler reads) the cache would skip; such addresses must
// stay on the live path.
func Predecode(read func(addr uint16) uint16, start, end uint16, fetchable func(addr uint16) bool) *Predecoded {
	start &^= 1
	n := (int(end)-int(start))/2 + 1
	p := &Predecoded{start: start}
	if n <= 0 {
		return p
	}
	p.entries = make([]Entry, n)
	for i := range p.entries {
		addr := start + uint16(2*i)
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
		p.entries[i] = Entry{U: u, Size: in.Size(), Cycles: uint16(Cycles(in)), OK: true}
	}
	return p
}

// Table exposes the window base and the entry slice for callers that
// inline the lookup (the CPU core's warm path). Entries are shared and
// read-only; an entry is valid only when its OK flag is set. Index i
// corresponds to fetch address start + 2*i.
func (p *Predecoded) Table() (start uint16, entries []Entry) {
	if p == nil {
		return 0, nil
	}
	return p.start, p.entries
}

// EntryAt returns the cached entry for a fetch at addr, or nil when
// addr is outside the window, odd (a misaligned fetch takes the live
// path, which models the bus's A0-ignore), or did not decode at
// predecode time. The entry is shared and read-only.
func (p *Predecoded) EntryAt(addr uint16) *Entry {
	if p == nil || addr&1 != 0 || addr < p.start {
		return nil
	}
	i := int(addr-p.start) >> 1
	if i >= len(p.entries) || !p.entries[i].OK {
		return nil
	}
	return &p.entries[i]
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
	for i := range p.entries {
		if p.entries[i].OK {
			n++
		}
	}
	return n
}
