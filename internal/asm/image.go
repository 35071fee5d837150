package asm

import (
	"fmt"
	"sort"
)

// Image is a sparse memory image: a set of byte chunks at absolute
// addresses, the loadable output of the assembler (standing in for the
// ELF files of the paper's toolchain).
type Image struct {
	chunks map[uint16][]byte // start address -> bytes (normalized on read)
	end    int               // one past the highest placed byte
}

// NewImage creates an empty image.
func NewImage() *Image {
	return &Image{chunks: map[uint16][]byte{}}
}

// Put writes data at addr, failing on overlap with previously placed
// bytes (two statements assembling to the same address is always a bug).
// Statements mostly place bytes in ascending order, so only a Put that
// starts below the highest placed byte (a backward .org) scans the
// placed chunks for an overlap.
func (img *Image) Put(addr uint16, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	end := int(addr) + len(data)
	if end > 0x10000 {
		return fmt.Errorf("image: %d bytes at 0x%04x exceed the address space", len(data), addr)
	}
	if int(addr) < img.end {
		for start, chunk := range img.chunks {
			if int(addr) < int(start)+len(chunk) && int(start) < end {
				return fmt.Errorf("image: bytes at 0x%04x overlap chunk at 0x%04x", addr, start)
			}
		}
	}
	img.chunks[addr] = append([]byte(nil), data...)
	img.end = max(img.end, end)
	return nil
}

// Chunk is a contiguous run of image bytes.
type Chunk struct {
	Addr uint16
	Data []byte
}

// Chunks returns the image contents coalesced into maximal contiguous
// runs, sorted by address.
func (img *Image) Chunks() []Chunk {
	starts := make([]int, 0, len(img.chunks))
	for a := range img.chunks {
		starts = append(starts, int(a))
	}
	sort.Ints(starts)
	var out []Chunk
	for _, s := range starts {
		data := img.chunks[uint16(s)]
		if n := len(out); n > 0 && int(out[n-1].Addr)+len(out[n-1].Data) == s {
			out[n-1].Data = append(out[n-1].Data, data...)
			continue
		}
		out = append(out, Chunk{Addr: uint16(s), Data: append([]byte(nil), data...)})
	}
	return out
}

// Size returns the total number of emitted bytes — the "binary size"
// metric of the paper's Table IV.
func (img *Image) Size() int {
	n := 0
	for _, c := range img.chunks {
		n += len(c)
	}
	return n
}

// SizeInRange returns the number of emitted bytes with addresses in
// [lo, hi] (inclusive), used to measure application size excluding the
// interrupt vector table, matching how the paper reports binary size.
func (img *Image) SizeInRange(lo, hi uint16) int {
	n := 0
	for start, data := range img.chunks {
		for i := range data {
			a := uint32(start) + uint32(i)
			if a >= uint32(lo) && a <= uint32(hi) {
				n++
			}
		}
	}
	return n
}

// Loader is anything that accepts raw bytes at an absolute address
// (mem.Space implements it via LoadImage).
type Loader interface {
	LoadImage(addr uint16, data []byte) error
}

// WriteTo programs the image into the target.
func (img *Image) WriteTo(l Loader) error {
	for _, c := range img.Chunks() {
		if err := l.LoadImage(c.Addr, c.Data); err != nil {
			return err
		}
	}
	return nil
}

// BytesInRange flattens the image bytes whose addresses fall inside
// [lo, hi] into one contiguous buffer (zero-filled gaps); the second
// return is the base address (the first used address in range). Used by
// the secure-update flow, which may only touch user program memory.
func (img *Image) BytesInRange(lo, hi uint16) ([]byte, uint16) {
	var base, end uint32
	base = 0x10000
	for _, c := range img.Chunks() {
		for i := range c.Data {
			a := uint32(c.Addr) + uint32(i)
			if a < uint32(lo) || a > uint32(hi) {
				continue
			}
			if a < base {
				base = a
			}
			if a+1 > end {
				end = a + 1
			}
		}
	}
	if base >= end {
		return nil, 0
	}
	out := make([]byte, end-base)
	for _, c := range img.Chunks() {
		for i, b := range c.Data {
			a := uint32(c.Addr) + uint32(i)
			if a >= base && a < end {
				out[a-base] = b
			}
		}
	}
	return out, uint16(base)
}

// Bytes flattens the image into a single contiguous byte slice starting
// at the lowest used address. The second return is that base address.
func (img *Image) Bytes() ([]byte, uint16) {
	chunks := img.Chunks()
	if len(chunks) == 0 {
		return nil, 0
	}
	base := chunks[0].Addr
	last := chunks[len(chunks)-1]
	total := int(last.Addr) + len(last.Data) - int(base)
	out := make([]byte, total)
	for _, c := range chunks {
		copy(out[c.Addr-base:], c.Data)
	}
	return out, base
}
