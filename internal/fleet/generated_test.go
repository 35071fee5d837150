package fleet

import (
	"bytes"
	"testing"
)

// genNDJSON runs a generated-only matrix through the streaming path,
// constructing a fresh machine per job when noRecycle is set, and
// returns the per-job NDJSON bytes — the artifact the determinism
// contract is stated over.
func genNDJSON(t *testing.T, spec BatchSpec, noRecycle bool) []byte {
	t.Helper()
	r, err := NewRunner(newPipeline(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	r.noRecycle = noRecycle
	var buf bytes.Buffer
	// emit may run on a worker goroutine, where t.Fatal must not be
	// called.
	rep, _, err := r.Run(nil, nil, func(jr JobResult) {
		if err := WriteNDJSONLine(&buf, jr); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		t.Fatalf("%d generated jobs errored:\n%s", rep.Failures, buf.String())
	}
	return buf.Bytes()
}

func genSpec(workers int) BatchSpec {
	return BatchSpec{
		Matrix: MatrixSpec{
			NoApps:      true,
			NoScenarios: true,
			Generated:   GeneratedSpec{Seed: 7, Count: 48},
		},
		Exec: ExecSpec{Workers: workers},
	}
}

// TestGeneratedDeterminismWorkers extends the fleet's byte-identical
// contract to the generated dimension: a fixed-seed batch streams the
// same NDJSON on one worker and on eight.
func TestGeneratedDeterminismWorkers(t *testing.T) {
	seq := genNDJSON(t, genSpec(1), false)
	par := genNDJSON(t, genSpec(8), false)
	if !bytes.Equal(seq, par) {
		t.Fatal("generated NDJSON differs between 1 and 8 workers")
	}
}

// TestGeneratedDeterminismRecycle extends the PR 4 recycled-vs-fresh
// differential to generated scenarios: machine recycling must not be
// observable in any generated job's record.
func TestGeneratedDeterminismRecycle(t *testing.T) {
	recycled := genNDJSON(t, genSpec(4), false)
	fresh := genNDJSON(t, genSpec(4), true)
	if !bytes.Equal(recycled, fresh) {
		t.Fatal("generated NDJSON differs between recycled and construct-per-job machines")
	}
}

// TestGeneratedOracle runs a larger fixed-seed batch and asserts the
// dimension's security property end to end: every job passes its
// per-defense oracle (in particular, zero EILID compromises), while the
// baseline falls to at least some variants — proof the generated inputs
// carry real attacks, not noise.
func TestGeneratedOracle(t *testing.T) {
	r, err := NewRunner(newPipeline(t), BatchSpec{
		Matrix: MatrixSpec{
			NoApps:      true,
			NoScenarios: true,
			Generated:   GeneratedSpec{Seed: 1, Count: 160},
		},
		Exec: ExecSpec{Workers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, rep := runAll(t, r)
	if rep.Failures > 0 || rep.ChecksFailed > 0 {
		for _, jr := range results {
			if jr.Err != "" || !jr.CheckOK {
				t.Errorf("job %d %s/%s: err=%q oracle=%q", jr.Index, jr.Name, jr.Defense, jr.Err, jr.Oracle)
			}
		}
		t.Fatalf("%d failures, %d check failures", rep.Failures, rep.ChecksFailed)
	}
	// Tally the matrix per defense column across generated families.
	perDefense := map[string]MatrixCell{}
	for _, col := range rep.Matrix {
		for defense, cell := range col {
			agg := perDefense[defense]
			agg.Jobs += cell.Jobs
			agg.Detected += cell.Detected
			agg.Compromised += cell.Compromised
			perDefense[defense] = agg
		}
	}
	eilid, baseline := perDefense["eilid"], perDefense["baseline"]
	if eilid.Jobs == 0 || eilid.Jobs != baseline.Jobs {
		t.Fatalf("lopsided dimension: %d eilid vs %d baseline jobs", eilid.Jobs, baseline.Jobs)
	}
	if eilid.Compromised != 0 {
		t.Fatalf("%d EILID compromises — EILID's guarantee broken", eilid.Compromised)
	}
	if baseline.Compromised == 0 {
		t.Fatal("no generated variant compromised the baseline; the batch carries no real attacks")
	}
	// Every family must have reached the matrix.
	fams := map[string]bool{}
	for _, jr := range results {
		fams[jr.Family] = true
	}
	if len(fams) < 8 {
		t.Fatalf("only %d families ran: %v", len(fams), fams)
	}
}
