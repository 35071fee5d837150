package fleet

import (
	"runtime"
	"testing"

	"eilid/internal/core"
)

// maxSealedBytes bounds the live heap one sealed, idle machine holds:
// its 64 KiB slab plus the CPU, peripherals, monitor and a snapshot of
// the few pages its image fills. The dispatch table and the decode
// cache are shared, so they do not count.
const maxSealedBytes = 72 << 10

// TestSealedMachineBytes pins what a sealed machine costs the fleet. It
// seals 64 machines per pool through the runner's checkout path, for
// one Table IV app and for every victim of Generate(1, 16), in every
// defense column, and reads the live heap they hold after a collection.
func TestSealedMachineBytes(t *testing.T) {
	const machines = 64
	p := newPipeline(t)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, spec := range []BatchSpec{
		{Matrix: MatrixSpec{Apps: []string{"TempSensor"}, NoScenarios: true}},
		{Matrix: MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 1, Count: 16}}},
	} {
		r, err := NewRunner(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[poolKey]bool{}
		for i, c := range r.cells {
			k := c.pool
			if seen[k] {
				continue
			}
			seen[k] = true
			name := r.jobs[i].Name
			if r.jobs[i].Victim != "" {
				name = r.jobs[i].Victim
			}
			// A first checkout builds whatever machines share on first
			// use, outside the measurement.
			if _, err := r.checkout(k); err != nil {
				t.Fatal(err)
			}
			held := make([]*core.Machine, machines)
			before := liveHeap()
			for i := range held {
				if held[i], err = r.checkout(k); err != nil {
					t.Fatal(err)
				}
			}
			per := (int64(liveHeap()) - int64(before)) / machines
			runtime.KeepAlive(held)
			if per > maxSealedBytes {
				t.Errorf("%s under %s: a sealed machine holds %d bytes (%.1f KiB), want at most %d KiB",
					name, k.spec.Name, per, float64(per)/1024, maxSealedBytes>>10)
			}
			t.Logf("%s under %s: %.1f KiB per sealed machine", name, k.spec.Name, float64(per)/1024)
		}
	}
}
