package fleet

import (
	"runtime"
	"sort"
	"testing"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/isa"
	"eilid/internal/mem"
)

// maxArtifactBytes bounds the live heap one build flavour's decode cache
// holds: the block pages of the few 256-byte pages that hold code, its
// one page index and the fused ops, each carrying its decode. The
// flavours TestArtifactBytes prepares hold 14.8 KiB each on average (2.3
// code pages); a second page table beside the blocks, one decode per
// slot, brought them to 21.1 KiB, and tables sized to the whole 8 KiB
// window held 250 KiB.
const maxArtifactBytes = 18 << 10

// maxRunnerSetupBytes bounds what NewRunner allocates to prepare the
// six handcrafted attacks in the four defense columns, 50 repeats each
// (the matrix of the benchmark's attacks-short workload), from a built
// pipeline: assembling and instrumenting six firmwares, predecoding
// their twelve flavours and enumerating 1,200 jobs, 1.25 MiB in all.
// Building a machine per flavour to predecode it added 0.77 MiB, and
// window-sized tables another 2.7 MiB.
const maxRunnerSetupBytes = 3 << 19

// flavourKey names one build flavour of one prepared artifact.
type flavourKey struct {
	name string
	ref  *core.DefenseSpec
}

// flavours returns every build flavour r prepared, sorted by name, with
// the reference defense each is predecoded under.
func flavours(r *Runner) ([]flavourKey, map[flavourKey]*artifact) {
	var keys []flavourKey
	of := map[flavourKey]*artifact{}
	for name, a := range r.artifacts {
		for _, ref := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseEILID} {
			if f, _ := a.flavour(ref); f.pre != nil {
				k := flavourKey{name, ref}
				keys = append(keys, k)
				of[k] = a
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].ref.Name < keys[j].ref.Name
	})
	return keys, of
}

// sameBlock reports whether two fused blocks hold the same ops (the same
// lowering, address, size, cost and flag liveness) and the same totals.
func sameBlock(a, b *isa.Block) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Ops) != len(b.Ops) || a.Cycles != b.Cycles || a.Pure != b.Pure ||
		a.Countdown != b.Countdown || a.W0 != b.W0 || a.W1 != b.W1 {
		return false
	}
	for k := range a.Ops {
		x, y := &a.Ops[k], &b.Ops[k]
		if x.U != y.U || x.PC != y.PC || x.Next != y.Next || x.Cycles != y.Cycles || x.Flags != y.Flags || x.Mem != y.Mem {
			return false
		}
	}
	return true
}

// TestPredecodeImagesMatchMachine builds every flavour of the default
// matrix, of Generate(1, 64) and of Generate(1, 16) both ways: from its
// images, as the runner prepares it (attacks.Target.Predecode), and by
// EnablePredecode on a machine loaded with them (Target.NewMachine). At
// every even address of the window both must hold the same block; its
// first op, the decode Step runs, must be exactly what isa.Decode and
// isa.LowerUOp give for the machine's memory, or there must be no block
// where the live path must run; and a page of either table holds
// storage exactly when an address on it holds a decode.
func TestPredecodeImagesMatchMachine(t *testing.T) {
	p := newPipeline(t)
	l := p.Config().Layout
	fetchable := func(a uint16) bool {
		switch l.RegionOf(a) {
		case mem.RegionPMEM, mem.RegionSecureROM, mem.RegionIVT:
			return true
		}
		return false
	}
	n := 0
	for _, m := range []MatrixSpec{
		{},
		{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 64}},
		{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 16}},
	} {
		r, err := NewRunner(p, BatchSpec{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		keys, of := flavours(r)
		for _, k := range keys {
			n++
			a := of[k]
			img, _ := a.flavour(k.ref)
			machine, err := attacks.TargetFor(p, a.build, k.ref).NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			ref := machine.CPU.Predecoded()
			peek := machine.Space.PeekWord
			got := img.pre
			bad := 0
			for pc := int(l.PMEMStart); pc < 1<<16; pc += 2 {
				a := uint16(pc)
				rb := ref.At(a)
				if !sameBlock(got.At(a), rb) {
					t.Errorf("%s/%s 0x%04x: image and machine blocks differ", k.name, k.ref.Name, a)
					bad++
				}
				var want *isa.BlockOp
				if a < 0xFFFC && fetchable(a) && fetchable(a+2) && fetchable(a+4) {
					in, _, err := isa.Decode([]uint16{peek(a), peek(a + 2), peek(a + 4)})
					if err == nil {
						if u, ok := isa.LowerUOp(a, in); ok {
							want = &isa.BlockOp{U: u, PC: a, Next: a + in.Size(), Cycles: uint16(isa.Cycles(in))}
						}
					}
				}
				switch {
				case (rb == nil) != (want == nil):
					t.Errorf("%s/%s 0x%04x: cached %v, Decode and LowerUOp give %+v", k.name, k.ref.Name, a, rb != nil, want)
					bad++
				case rb != nil:
					if op := &rb.Ops[0]; op.U != want.U || op.PC != want.PC || op.Next != want.Next || op.Cycles != want.Cycles {
						t.Errorf("%s/%s 0x%04x: cached %+v, Decode and LowerUOp give %+v", k.name, k.ref.Name, a, *op, *want)
						bad++
					}
				}
				if bad > 10 {
					t.Fatalf("%s/%s: too many mismatches", k.name, k.ref.Name)
				}
			}
			for _, pre := range []*isa.Predecoded{got, ref} {
				page0, pages := pre.Table()
				for i := range pages {
					code := false
					for s := 0; s < isa.PageSlots; s++ {
						code = code || pre.At((page0+uint16(i))<<8|uint16(2*s)) != nil
					}
					if (pages[i] != nil) != code {
						t.Errorf("%s/%s page 0x%02x: holds code %v, stored %v", k.name, k.ref.Name, page0+uint16(i), code, pages[i] != nil)
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no flavour was checked")
	}
	t.Logf("%d flavours checked", n)
}

// TestBuildBlocksMatchesPredecode fuses every flavour of the default
// matrix and of Generate(1, 16) afresh from its table's decodes
// (isa.BuildBlocks, the pass Predecode ends with, which the benchmark
// times on its own) and requires the same block at every address: the
// same ops, with the same lowering, address, size, cost and flag
// liveness, and the same totals, countdown mark and written-page range.
func TestBuildBlocksMatchesPredecode(t *testing.T) {
	p := newPipeline(t)
	n := 0
	for _, m := range []MatrixSpec{
		{},
		{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 16}},
	} {
		r, err := NewRunner(p, BatchSpec{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		keys, of := flavours(r)
		for _, k := range keys {
			f, _ := of[k].flavour(k.ref)
			fused := isa.BuildBlocks(f.pre)
			if fused.Len() != f.pre.Len() || fused.Len() == 0 {
				t.Fatalf("%s/%s: fused afresh %d blocks, predecoded %d", k.name, k.ref.Name, fused.Len(), f.pre.Len())
			}
			for pc := 0; pc < 1<<16; pc += 2 {
				if !sameBlock(fused.At(uint16(pc)), f.pre.At(uint16(pc))) {
					t.Fatalf("%s/%s 0x%04x: the block fused afresh differs", k.name, k.ref.Name, pc)
				}
			}
			n++
		}
	}
	t.Logf("%d flavours checked", n)
}

// TestArtifactBytes pins what a build flavour's decode cache costs a
// daemon's Warm. It prepares every flavour of the Table IV
// apps, the handcrafted attacks and the victims of Generate(1, 16) in a
// fresh Warm, then drops the flavours' caches, and reads the live heap
// they held after a collection.
func TestArtifactBytes(t *testing.T) {
	p := newPipeline(t)
	// A worker an earlier test hung may still be finishing its job,
	// which would allocate and free between the two readings.
	waitFor(t, workerGoroutines, 0, "workers left by earlier tests")
	// The second collection frees what the first left in sync.Pool
	// victim caches, so the reading holds live objects only.
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r, err := NewRunnerWarm(p, BatchSpec{Matrix: MatrixSpec{Generated: GeneratedSpec{Seed: 1, Count: 16}}}, NewWarm())
	if err != nil {
		t.Fatal(err)
	}
	keys, of := flavours(r)
	pages := 0
	for _, k := range keys {
		f, _ := of[k].flavour(k.ref)
		_, ps := f.pre.Table()
		for _, pg := range ps {
			if pg != nil {
				pages++
			}
		}
	}
	held := liveHeap()
	for _, k := range keys {
		f, _ := of[k].flavour(k.ref)
		f.pre = nil
	}
	per := (int64(held) - int64(liveHeap())) / int64(len(keys))
	runtime.KeepAlive(r)
	if per > maxArtifactBytes {
		t.Errorf("a build flavour holds %d bytes (%.1f KiB), want at most %d KiB", per, float64(per)/1024, maxArtifactBytes>>10)
	}
	t.Logf("%d flavours, %.2f code pages and %.1f KiB per flavour", len(keys), float64(pages)/float64(len(keys)), float64(per)/1024)
}

// TestNewRunnerSetupBytes bounds what preparing the handcrafted-attack
// matrix allocates: no flavour's decode cache needs a machine built for
// it, and each holds only its code pages.
func TestNewRunnerSetupBytes(t *testing.T) {
	p := newPipeline(t)
	spec := BatchSpec{Matrix: MatrixSpec{NoApps: true, Repeat: 50}}
	waitFor(t, workerGoroutines, 0, "workers left by earlier tests")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewRunner(p, spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Jobs()); n != 6*4*50 {
		t.Fatalf("the matrix has %d jobs, want 1200", n)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > maxRunnerSetupBytes {
		t.Errorf("NewRunner allocated %d bytes (%.2f MiB), want at most %.2f MiB", got, float64(got)/(1<<20), float64(maxRunnerSetupBytes)/(1<<20))
	}
	t.Logf("NewRunner allocated %.2f MiB", float64(got)/(1<<20))
}
