package mem

import "math/bits"

// WrittenPages returns how many 256-byte pages s has marked written
// since its last Snapshot or Restore: the pages the next Restore from
// its base copies.
func WrittenPages(s *Space) int {
	n := 0
	for _, w := range s.written {
		n += bits.OnesCount64(w)
	}
	return n
}

// SnapshotPages returns how many 256-byte pages snap holds: the pages
// of the sealed slab that held a non-zero byte.
func SnapshotPages(snap *Snapshot) int { return len(snap.pages) }
