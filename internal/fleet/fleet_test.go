package fleet

import (
	"bytes"
	"strings"
	"testing"

	"eilid/internal/core"
)

func newPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFleetDeterminism is the acceptance property of the runner: the
// full app × defense × scenario matrix on 8 workers produces per-job
// results byte-identical to a sequential run of the same matrix.
func TestFleetDeterminism(t *testing.T) {
	p := newPipeline(t)
	r, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Repeat: 2}, Exec: ExecSpec{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	seq, interrupted, err := r.RunSequential(nil)
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		t.Fatal("uncancelled RunSequential reported interrupted")
	}
	par, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := seq.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := par.ResultsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		for i := range seq.Results {
			if seq.Results[i] != par.Results[i] {
				t.Errorf("job %d diverges:\nseq: %+v\npar: %+v", i, seq.Results[i], par.Results[i])
			}
		}
		t.Fatal("concurrent results differ from sequential run")
	}
	if seq.Workers != 1 || par.Workers != 8 {
		t.Fatalf("worker accounting: seq=%d par=%d", seq.Workers, par.Workers)
	}
	// A closed cancel stops the sequential pass before it dispatches.
	cancel := make(chan struct{})
	close(cancel)
	cut, interrupted, err := r.RunSequential(cancel)
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted || cut.Jobs != 0 {
		t.Fatalf("pre-closed cancel: interrupted=%v after %d jobs", interrupted, cut.Jobs)
	}
}

// TestFleetRepeatsIdentical checks that repeats of the same job cell
// are bit-for-bit reproducible (machines share artifacts but no state).
func TestFleetRepeatsIdentical(t *testing.T) {
	p := newPipeline(t)
	r, err := NewRunner(p, BatchSpec{
		Matrix: MatrixSpec{Apps: []string{"TempSensor"}, NoScenarios: true, Repeat: 3},
		Exec:   ExecSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	perCell := map[string]JobResult{}
	for _, jr := range rep.Results {
		key := jr.Kind + "/" + jr.Name + "/" + jr.Defense
		ref, ok := perCell[key]
		if !ok {
			perCell[key] = jr
			continue
		}
		// Repeats differ only in Index/Repeat bookkeeping.
		a, b := jr, ref
		a.Index, a.Repeat, b.Index, b.Repeat = 0, 0, 0, 0
		if a != b {
			t.Errorf("%s: repeat diverges:\n%+v\n%+v", key, jr, ref)
		}
	}
}

// TestFleetMatrixOutcomes sanity-checks the semantic content of the
// matrix: benign apps pass their behaviour checks under every defense,
// and every attack compromises the baseline while the EILID device
// resets without running attacker code.
func TestFleetMatrixOutcomes(t *testing.T) {
	p := newPipeline(t)
	r, err := NewRunner(p, BatchSpec{Exec: ExecSpec{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		for _, jr := range rep.Results {
			if jr.Err != "" {
				t.Errorf("job %d (%s/%s/%s): %s", jr.Index, jr.Kind, jr.Name, jr.Defense, jr.Err)
			}
		}
		t.Fatalf("%d job failures", rep.Failures)
	}
	for _, jr := range rep.Results {
		if !jr.CheckOK {
			t.Errorf("job %d (%s/%s/%s) failed its check (resets=%d reason=%q compromised=%v)",
				jr.Index, jr.Kind, jr.Name, jr.Defense, jr.Resets, jr.Reason, jr.Compromised)
		}
		if jr.Kind == "attack" && jr.Defense == core.DefenseEILID.Name && jr.Compromised {
			t.Errorf("attack %s compromised the EILID device", jr.Name)
		}
	}
	if rep.TotalCycles == 0 || rep.TotalInsns == 0 {
		t.Fatalf("empty aggregation: %+v", rep)
	}
}

// TestFleetSpecSelection exercises name selection and error paths.
func TestFleetSpecSelection(t *testing.T) {
	p := newPipeline(t)
	if _, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Apps: []string{"NoSuchApp"}}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Scenarios: []string{"no-such-attack"}}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Defenses: []string{"no-such-defense"}}}); err == nil {
		t.Fatal("unknown defense accepted")
	}
	r, err := NewRunner(p, BatchSpec{
		Matrix: MatrixSpec{
			Apps: []string{"LightSensor"}, Scenarios: []string{"stack-smash"},
			Defenses: []string{"baseline", "eilid"},
		},
		Exec: ExecSpec{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := r.Jobs()
	if len(jobs) != 4 { // 1 app × 2 defenses + 1 scenario × 2 defenses
		t.Fatalf("got %d jobs, want 4", len(jobs))
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Render(&buf)
	for _, want := range []string{"LightSensor", "stack-smash", "baseline", "eilid", "detection matrix"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunStreamMatchesRun: the streamed results arrive in job order and
// carry exactly the payloads Run aggregates, and the streamed report's
// counters match the aggregate one's.
func TestRunStreamMatchesRun(t *testing.T) {
	p := newPipeline(t)
	r, err := NewRunner(p, BatchSpec{
		Matrix: MatrixSpec{Apps: []string{"TempSensor"}, Scenarios: []string{"stack-smash"}},
		Exec:   ExecSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []JobResult
	rep, err := r.RunStream(func(jr JobResult) { streamed = append(streamed, jr) })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Error("streamed report retained the results slice")
	}
	if len(streamed) != len(full.Results) {
		t.Fatalf("streamed %d results, Run produced %d", len(streamed), len(full.Results))
	}
	for i := range streamed {
		if streamed[i] != full.Results[i] {
			t.Errorf("result %d differs:\n%+v\n%+v", i, streamed[i], full.Results[i])
		}
	}
	if rep.Jobs != full.Jobs || rep.Failures != full.Failures ||
		rep.ChecksFailed != full.ChecksFailed || rep.TotalCycles != full.TotalCycles ||
		rep.TotalInsns != full.TotalInsns {
		t.Errorf("aggregate counters diverged: %+v vs %+v", rep, full)
	}
}
