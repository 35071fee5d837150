package fleet

import (
	"fmt"
	"testing"

	"eilid/internal/core"
)

// TestRecycleFleetByteIdentical is the fleet-level recycling contract:
// the full app × variant × scenario matrix run on recycled machines
// (including jobs that reset mid-run — every protected attack job does)
// produces byte-identical JobResults to a construct-per-job run, on the
// first pass (pool warm-up mixes fresh and recycled machines) and on a
// second pass where every machine is recycled.
func TestRecycleFleetByteIdentical(t *testing.T) {
	p := newPipeline(t)
	fresh, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Repeat: 2}, Exec: ExecSpec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fresh.noRecycle = true
	recycled, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Repeat: 2}, Exec: ExecSpec{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runAll(t, fresh)
	for pass := 1; pass <= 2; pass++ {
		got, _ := runAll(t, recycled)
		sameResults(t, fmt.Sprintf("pass %d, recycled against construct-per-job", pass), want, got)
	}
	if st := recycled.warm.Stats(); st.Machines == 0 || st.MachineHits != 0 {
		t.Fatalf("recycling runner's private Warm: %+v; want idle machines and no cross-batch hits", st)
	}
	if st := fresh.warm.Stats(); st.Machines != 0 {
		t.Fatalf("construct-per-job runner pooled %d machines", st.Machines)
	}
}

// TestRecycleOneIdleMachinePerPool pins what the one pool holds: on one
// worker a Run leaves exactly one idle machine per (artifact, defense)
// pool in the runner's Warm, and a second Run checks those same
// machines out again and constructs none.
func TestRecycleOneIdleMachinePerPool(t *testing.T) {
	r, err := NewRunner(newPipeline(t), warmSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pools := map[poolKey]bool{}
	for _, c := range r.cells {
		pools[c.pool] = true
	}
	idle := func() map[*core.Machine]bool {
		set := map[*core.Machine]bool{}
		for k, ms := range r.warm.machines {
			if !pools[k] || len(ms) != 1 {
				t.Fatalf("a %s pool holds %d idle machines, want 1 in each of the runner's pools", k.spec.Name, len(ms))
			}
			set[ms[0].m] = true
		}
		if len(set) != len(pools) || r.warm.Stats().Machines != len(pools) {
			t.Fatalf("%d idle machines (stats %+v) for %d pools", len(set), r.warm.Stats(), len(pools))
		}
		return set
	}
	runAll(t, r)
	first := idle()
	runAll(t, r)
	for m := range idle() {
		if !first[m] {
			t.Fatal("the second Run constructed a machine")
		}
	}
}
