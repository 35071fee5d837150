package fleet

import (
	"bytes"
	"testing"
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
	ref, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		rep, err := recycled.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.ResultsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			for i := range ref.Results {
				if ref.Results[i] != rep.Results[i] {
					t.Errorf("pass %d job %d diverges:\nfresh:    %+v\nrecycled: %+v",
						pass, i, ref.Results[i], rep.Results[i])
				}
			}
			t.Fatalf("pass %d: recycled results differ from construct-per-job run", pass)
		}
	}
	pooled := 0
	for w := range recycled.worker {
		if mp := recycled.worker[w].pool; mp != nil {
			pooled += len(mp.machines)
		}
	}
	if pooled == 0 {
		t.Fatal("recycling runner pooled no machines; the differential is vacuous")
	}
	if mp := fresh.worker[0].pool; mp != nil && len(mp.machines) != 0 {
		t.Fatalf("construct-per-job runner pooled %d machines", len(mp.machines))
	}
}
