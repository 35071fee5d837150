package fleet

import (
	"slices"
	"strings"
	"sync/atomic"
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

// runAll runs every job of r and returns the results in job order with
// the report.
func runAll(t testing.TB, r *Runner) ([]JobResult, *Report) {
	t.Helper()
	var results []JobResult
	rep, interrupted, err := r.Run(nil, nil, func(jr JobResult) { results = append(results, jr) })
	if err != nil {
		t.Fatal(err)
	}
	if interrupted {
		t.Fatal("uncancelled run reported interrupted")
	}
	return results, rep
}

// sameResults fails unless got matches want job for job, naming every
// job that diverges.
func sameResults(t testing.TB, label string, want, got []JobResult) {
	t.Helper()
	if slices.Equal(want, got) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: job %d diverges:\nwant: %+v\ngot:  %+v", label, i, want[i], got[i])
		}
	}
	t.FailNow()
}

// TestFleetDeterminism is the acceptance property of the runner: the
// full app × defense × scenario matrix on 8 workers produces per-job
// results identical to a 1-worker run of the same matrix, and a
// pre-closed cancel stops either runner before it dispatches a job.
func TestFleetDeterminism(t *testing.T) {
	p := newPipeline(t)
	runner := func(workers int) *Runner {
		r, err := NewRunner(p, BatchSpec{Matrix: MatrixSpec{Repeat: 2}, Exec: ExecSpec{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seqRunner, parRunner := runner(1), runner(8)
	seq, seqRep := runAll(t, seqRunner)
	par, parRep := runAll(t, parRunner)
	sameResults(t, "8 workers against 1", seq, par)
	if seqRep.Workers != 1 || parRep.Workers != 8 {
		t.Fatalf("worker accounting: seq=%d par=%d", seqRep.Workers, parRep.Workers)
	}
	cancel := make(chan struct{})
	close(cancel)
	for _, r := range []*Runner{seqRunner, parRunner} {
		var ran atomic.Int64
		r.beforeJob = func(int) { ran.Add(1) }
		cut, interrupted, err := r.Run(nil, cancel, func(JobResult) {
			t.Errorf("%d workers: a job emitted after a pre-closed cancel", r.workers)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !interrupted || cut.Jobs != 0 || ran.Load() != 0 {
			t.Fatalf("%d workers, pre-closed cancel: interrupted=%v after %d jobs, %d dispatched",
				r.workers, interrupted, cut.Jobs, ran.Load())
		}
	}
}

// TestRunRefusesOutOfRangeIndex: an index outside the matrix is an
// error before anything is dispatched — no job runs, none is emitted.
func TestRunRefusesOutOfRangeIndex(t *testing.T) {
	r, err := NewRunner(newPipeline(t), smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	r.beforeJob = func(int) { ran.Add(1) }
	n := len(r.jobs)
	for _, indices := range [][]int{{0, n}, {-1}, {n - 1, n + 7}} {
		rep, interrupted, err := r.Run(indices, nil, func(JobResult) {
			t.Errorf("Run(%v) emitted a job", indices)
		})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Run(%v): err = %v, want an out-of-range error", indices, err)
		}
		if rep != nil || interrupted {
			t.Errorf("Run(%v): report %+v, interrupted %v; want neither", indices, rep, interrupted)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran despite an out-of-range index", got)
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
	results, _ := runAll(t, r)
	perCell := map[string]JobResult{}
	for _, jr := range results {
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
	results, rep := runAll(t, r)
	if rep.Failures != 0 {
		for _, jr := range results {
			if jr.Err != "" {
				t.Errorf("job %d (%s/%s/%s): %s", jr.Index, jr.Kind, jr.Name, jr.Defense, jr.Err)
			}
		}
		t.Fatalf("%d job failures", rep.Failures)
	}
	for _, jr := range results {
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

// TestAttackVerdictChecksReason: the EILID column of a handcrafted
// attack passes only when the device resets for the reason the scenario
// declares. The same batch whose scenario declares a reason the monitor
// never gives fails its eilid job's check and still passes its baseline
// job's.
func TestAttackVerdictChecksReason(t *testing.T) {
	p := newPipeline(t)
	spec := BatchSpec{Matrix: MatrixSpec{
		NoApps: true, Scenarios: []string{"stack-smash"}, Defenses: []string{"baseline", "eilid"},
	}}
	for _, want := range []string{"", "exec-from-nonexec"} {
		r, err := NewRunner(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		if want != "" {
			r.scenarios[0].WantReason = want
		}
		results, _ := runAll(t, r)
		base, prot := results[0], results[1]
		if !base.CheckOK || !base.Compromised {
			t.Errorf("WantReason %q: baseline job %+v, want compromised with check_ok", want, base)
		}
		if prot.Reason != "cfi-check-failed" || prot.Resets == 0 || prot.Compromised {
			t.Fatalf("WantReason %q: eilid job %+v, want a cfi-check-failed reset", want, prot)
		}
		if prot.CheckOK != (want == "") {
			t.Errorf("WantReason %q: eilid check_ok %v, want %v", want, prot.CheckOK, want == "")
		}
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
	// The table the CLI prints: header, one row per job, summary.
	var buf strings.Builder
	RenderTableHeader(&buf)
	rep, _, err := r.Run(nil, nil, func(jr JobResult) { jr.RenderRow(&buf) })
	if err != nil {
		t.Fatal(err)
	}
	rep.RenderSummary(&buf)
	for _, want := range []string{"LightSensor", "stack-smash", "baseline", "eilid", "detection matrix"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRunStreamMatchesRun: RunStream, the benchmark module's entry
// point, delivers exactly what Run does over every job, and Run over
// explicit indices — a resume's remainder — delivers those jobs' slice
// of the full run in the order given, with counters over that slice.
func TestRunStreamMatchesRun(t *testing.T) {
	p := newPipeline(t)
	r, err := NewRunner(p, BatchSpec{
		Matrix: MatrixSpec{Apps: []string{"TempSensor"}, Scenarios: []string{"stack-smash"}},
		Exec:   ExecSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, fullRep := runAll(t, r)
	var streamed []JobResult
	rep, err := r.RunStream(func(jr JobResult) { streamed = append(streamed, jr) })
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "RunStream", full, streamed)
	if rep.Jobs != fullRep.Jobs || rep.Failures != fullRep.Failures ||
		rep.ChecksFailed != fullRep.ChecksFailed || rep.TotalCycles != fullRep.TotalCycles ||
		rep.TotalInsns != fullRep.TotalInsns {
		t.Errorf("aggregate counters diverged: %+v vs %+v", rep, fullRep)
	}

	indices := []int{1, 2, 5, 7}
	var want, got []JobResult
	var cycles uint64
	for _, i := range indices {
		want = append(want, full[i])
		cycles += full[i].Cycles
	}
	sub, interrupted, err := r.Run(indices, nil, func(jr JobResult) { got = append(got, jr) })
	if err != nil || interrupted {
		t.Fatalf("Run(%v): interrupted=%v err=%v", indices, interrupted, err)
	}
	sameResults(t, "Run over indices", want, got)
	if sub.Jobs != len(indices) || sub.TotalCycles != cycles {
		t.Errorf("Run(%v) report counts %d jobs, %d cycles; want %d, %d", indices, sub.Jobs, sub.TotalCycles, len(indices), cycles)
	}
}
