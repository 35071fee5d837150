package mem

import "testing"

// TestSnapshotRestoreRoundTrip pins the recycling contract: Restore
// returns the slab and the bus-error count to exactly the sealed state,
// leaving peripheral mappings in place and the written-page mask clear
// (the restored bytes are the image any decode cache was built from, so
// no cached decode is stale). Restore from the base restores only the
// pages marked written, so each write path is
// driven on its own, into pages no other step writes, and every
// Restore is checked over all 64 KiB: a path that skips its mark leaves
// its bytes behind. A snapshot keeps only the pages holding a non-zero
// byte, so the steps also write a page that was zero when sealed (the
// restore must clear it) and one whose only sealed non-zero byte is its
// last (the snapshot must hold it). A foreign snapshot restores every
// page, and Snapshot re-bases.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	h := &stubHandler{}
	s := MustNewSpace(DefaultLayout(), Mapping{0x0100, 0x010F, h})
	if err := s.LoadImage(0xE000, []byte{0x11, 0x22, 0x33, 0x44}); err != nil {
		t.Fatal(err)
	}
	// Page 0xF0 holds one non-zero byte, its last; page 0xF4 is zero.
	if err := s.LoadImage(0xF0FF, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	// Sealed bytes in every volatile page Reset clears but no other
	// step writes, so a Reset that skips its marks leaves zeros behind.
	for a := 0x0200; a <= 0x0AFF; a += 0x100 {
		s.StoreByte(uint16(a+0x80), byte(a>>8))
	}
	s.StoreWord(0x0200, 0xBEEF)
	s.LoadWord(0x0C00) // unmapped: one bus error into the snapshot
	snap := s.Snapshot()
	sealed := s.ReadRaw(0, Size)
	if n := WrittenPages(s); n != 0 {
		t.Fatalf("Snapshot left %d pages marked, want 0", n)
	}
	// The pages holding a non-zero byte: 0x02-0x0A, 0xE0 and 0xF0.
	if n := SnapshotPages(snap); n != 11 {
		t.Fatalf("snapshot holds %d pages, want 11", n)
	}

	// restore returns s to snap and requires all of memory to equal
	// want, the bus errors snap's, and the mask to be clear.
	restore := func(what string, snap *Snapshot, want []byte) {
		t.Helper()
		if err := s.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if n := WrittenPages(s); n != 0 {
			t.Errorf("%s: Restore left %d pages marked, want 0", what, n)
		}
		if s.BusErrors != snap.busErrors {
			t.Errorf("%s: BusErrors after restore = %d, want %d", what, s.BusErrors, snap.busErrors)
		}
		sameMemory(t, what, s.ReadRaw(0, Size), want)
	}
	for _, step := range []struct {
		name  string
		write func()
		pages int // pages the step marks
	}{
		{"StoreWord", func() { s.StoreWord(0x0200, 0x0000) }, 1},
		{"StoreWord to PMEM", func() { s.StoreWord(0xE000, 0x5555) }, 1},
		{"StoreByte", func() { s.StoreByte(0x0701, 0xA5) }, 1},
		{"page-straddling LoadImage", func() {
			if err := s.LoadImage(0xE0FE, []byte{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"Reset", s.Reset, 9},
		{"a zero page and a page sealed with only its last byte set", func() {
			s.StoreWord(0xF400, 0x1234)
			s.StoreByte(0xF4FF, 0x56)
			s.StoreByte(0xF0FF, 0x00)
			s.StoreWord(0xF080, 0x9ABC)
		}, 2},
		{"bus errors and a handler store", func() {
			s.LoadWord(0x0C00)
			s.LoadWord(0x0C02)
			s.StoreWord(0x0100, 7)
		}, 0},
	} {
		step.write()
		if n := WrittenPages(s); n != step.pages {
			t.Errorf("%s marked %d pages, want %d", step.name, n, step.pages)
		}
		restore(step.name, snap, sealed)
	}
	if got := s.LoadWord(0x0200); got != 0xBEEF {
		t.Errorf("DMEM after restore = 0x%04x, want 0xBEEF", got)
	}
	if got := s.PeekWord(0xE000); got != 0x2211 {
		t.Errorf("PMEM after restore = 0x%04x, want 0x2211", got)
	}
	if s.BusErrors != 1 {
		t.Errorf("BusErrors after restore = %d, want the sealed 1", s.BusErrors)
	}
	// The mapping survives untouched: handler dispatch still works.
	s.StoreWord(0x0100, 7)
	if h.stores != 2 {
		t.Errorf("peripheral mapping lost across restore: %d stores, want 2", h.stores)
	}

	// Another space's snapshot shares no base with s: Restore restores
	// every page (nothing is marked, so a partial restore would change
	// nothing) and makes it the base; the next Restore of snap is whole
	// again. The foreign image holds only the last byte of every even
	// page, so the restore must also clear the odd pages s sealed.
	o := MustNewSpace(DefaultLayout())
	for a := 0; a < Size; a += 0x200 {
		if err := o.LoadImage(uint16(a+0xFF), []byte{^byte(a >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	o.BusErrors = 3
	foreign := o.Snapshot()
	if n := SnapshotPages(foreign); n != 128 {
		t.Fatalf("foreign snapshot holds %d pages, want 128", n)
	}
	restore("foreign snapshot", foreign, o.ReadRaw(0, Size))
	s.StoreByte(0x0300, 9)
	s.StoreWord(0xF400, 0x1234)
	restore("foreign base", foreign, o.ReadRaw(0, Size))
	s.StoreWord(0xF400, 0x1234)
	s.StoreByte(0xF0FF, 0x00)
	restore("back to snap", snap, sealed)

	// A second Snapshot re-bases: the pages written before it are not
	// marked afterwards, so restoring snap must be a full copy.
	s.StoreWord(0x0400, 0x1234)
	snap2 := s.Snapshot()
	resealed := s.ReadRaw(0, Size)
	s.StoreWord(0x0500, 0x5678)
	restore("snap after re-basing", snap, sealed)
	restore("second snapshot", snap2, resealed)
	s.StoreWord(0x0600, 0x9ABC)
	restore("second snapshot as base", snap2, resealed)
}

// TestSnapshotRestoreAfterSettle pins Settle, which a decode-cache
// install calls: it clears the mask without allocating and forgets the
// base, so a page written before it, no longer marked, still comes back
// when the next Restore copies the sealed snapshot whole.
func TestSnapshotRestoreAfterSettle(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	if err := s.LoadImage(0xE000, []byte{0x11, 0x22}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	sealed := s.ReadRaw(0, Size)
	s.StoreWord(0xE000, 0x5555)
	if allocs := testing.AllocsPerRun(10, s.Settle); allocs != 0 {
		t.Errorf("Settle allocates %.1f objects/run", allocs)
	}
	if n := WrittenPages(s); n != 0 {
		t.Fatalf("Settle left %d pages marked, want 0", n)
	}
	s.StoreWord(0x0200, 0x1234)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sameMemory(t, "restore after Settle", s.ReadRaw(0, Size), sealed)
	// The whole copy made snap the base again: the next restore is
	// partial and still exact.
	s.StoreWord(0x0300, 0x4321)
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	sameMemory(t, "restore of the new base", s.ReadRaw(0, Size), sealed)
}

// sameMemory reports the first and the number of bytes at which got
// differs from want.
func sameMemory(t *testing.T, what string, got, want []byte) {
	t.Helper()
	diff, first := 0, -1
	for a := range want {
		if got[a] != want[a] {
			if first < 0 {
				first = a
			}
			diff++
		}
	}
	if diff > 0 {
		t.Errorf("%s: %d bytes differ, first at 0x%04x: %02x, want %02x", what, diff, first, got[first], want[first])
	}
}

// TestSnapshotRestoreRejectsMismatch pins the guard rails: nil
// snapshots and layout mismatches are errors, not silent corruption.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	s := MustNewSpace(DefaultLayout())
	if err := s.Restore(nil); err == nil {
		t.Error("Restore(nil) succeeded")
	}
	other := DefaultLayout()
	other.DMEMEnd = 0x08FF
	snap := MustNewSpace(other).Snapshot()
	if err := s.Restore(snap); err == nil {
		t.Error("Restore accepted a snapshot from a different layout")
	}
}

// stubHandler counts stores for the mapping-survival assertion.
type stubHandler struct{ stores int }

func (h *stubHandler) LoadWord(addr uint16) uint16     { return 0 }
func (h *stubHandler) StoreWord(addr uint16, v uint16) { h.stores++ }
