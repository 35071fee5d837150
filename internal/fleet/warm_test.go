package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"eilid/internal/core"
	"eilid/internal/isa"
)

// warmSpec is the cross-batch matrix: an app, an attack and a small
// generated dimension across every registered defense column, so the
// warm pools carry app, attack and generated-victim machines alike.
func warmSpec(workers int) BatchSpec {
	return BatchSpec{
		Matrix: MatrixSpec{
			Apps:      []string{"LightSensor"},
			Scenarios: []string{"stack-smash"},
			Generated: GeneratedSpec{Seed: 9, Count: 8},
		},
		Exec: ExecSpec{Workers: workers},
	}
}

// TestRecycleWarmCrossBatch is the cross-batch pool-reuse contract the
// service mode rests on: batch N+1 on a warm cache — recycled machines
// and cached artifacts from batch N — produces JobResults
// byte-identical to a cold single-shot run, for every defense column,
// and the second batch actually hits the cache (otherwise the
// differential is vacuous).
func TestRecycleWarmCrossBatch(t *testing.T) {
	p := newPipeline(t)

	// Cold reference: a plain runner with no warm cache.
	cold, err := NewRunner(p, warmSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runAll(t, cold)

	warm := NewWarm()
	for batch := 1; batch <= 3; batch++ {
		r, err := NewRunnerWarm(p, warmSpec(4), warm)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runAll(t, r)
		sameResults(t, fmt.Sprintf("batch %d on the warm cache against the cold run", batch), want, got)
		// Only machines an earlier batch checked in count as hits.
		if hits := warm.Stats().MachineHits; (batch == 1) != (hits == 0) {
			t.Fatalf("%d machine hits after batch %d; want none after the first batch only", hits, batch)
		}
	}

	st := warm.Stats()
	if st.ArtifactHits == 0 {
		t.Errorf("no artifact cache hits across 3 batches: %+v", st)
	}
	if st.Machines == 0 {
		t.Errorf("warm cache holds no idle machines after 3 batches: %+v", st)
	}
	// Batches 2 and 3 must not have rebuilt anything: every prepare is
	// a hit once batch 1 populated the cache.
	if st.ArtifactMisses != st.Artifacts {
		t.Errorf("artifacts were rebuilt despite the warm cache: %+v", st)
	}
}

// TestRecycleWarmDistinctSpecsShareArtifacts: a different matrix over
// the same firmwares reuses the warm artifacts (content-addressed, not
// name-addressed) and still matches its own cold reference.
func TestRecycleWarmDistinctSpecsShareArtifacts(t *testing.T) {
	p := newPipeline(t)
	warm := NewWarm()

	first, err := NewRunnerWarm(p, warmSpec(2), warm)
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, first)
	misses := warm.Stats().ArtifactMisses

	// A narrower second spec: same app, one defense column.
	spec2 := BatchSpec{
		Matrix: MatrixSpec{Apps: []string{"LightSensor"}, NoScenarios: true, Defenses: []string{"eilid"}},
		Exec:   ExecSpec{Workers: 2},
	}
	cold, err := NewRunner(p, spec2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runAll(t, cold)
	second, err := NewRunnerWarm(p, spec2, warm)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runAll(t, second)
	sameResults(t, "warm run of the second spec against its cold reference", want, got)
	if st := warm.Stats(); st.ArtifactMisses != misses {
		t.Errorf("second spec rebuilt %d artifacts the cache already held", st.ArtifactMisses-misses)
	}
}

// TestJournalHeaderForSpec pins the arithmetic header against the one
// the runner derives after actually building the matrix — the service
// mode journals never-started batches with the former and running
// batches with the latter, so they must agree byte-for-byte.
func TestJournalHeaderForSpec(t *testing.T) {
	p := newPipeline(t)
	for _, spec := range []BatchSpec{
		warmSpec(1),
		{Matrix: MatrixSpec{Apps: []string{"LightSensor"}, NoScenarios: true, Repeat: 2}},
		{Matrix: MatrixSpec{NoApps: true, NoScenarios: true, Generated: GeneratedSpec{Seed: 3, Count: 5}, Defenses: []string{"baseline", "eilid"}}},
	} {
		want, err := JournalHeaderForSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := r.JournalHeader()
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("headers diverge for %+v:\narithmetic: %s\nrunner:     %s", spec.Matrix, wb, gb)
		}
		if want.Jobs != len(r.Jobs()) {
			t.Errorf("arithmetic job count %d != %d actual jobs for %+v", want.Jobs, len(r.Jobs()), spec.Matrix)
		}
	}
}

// TestRecycleWarmAddsFlavour pins that a runner predecodes only the
// build flavours its columns run, and that a warm artifact lacking a
// flavour a later batch needs gets it then, once, for every machine of
// that flavour to share. A baseline-only batch leaves the instrumented
// cache unbuilt; two eilid runners preparing at once on the same Warm
// share the one either builds, and the machines of two eilid batches
// run exactly that cache. Every journal equals its cold run's.
func TestRecycleWarmAddsFlavour(t *testing.T) {
	p := newPipeline(t)
	spec := func(defense string) BatchSpec {
		s := warmSpec(2)
		s.Matrix.Defenses = []string{defense}
		return s
	}
	cold := func(defense string) []byte {
		r, err := NewRunner(p, spec(defense))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := journalRun(t, r, -1)
		return data
	}
	warm := NewWarm()
	run := func(defense string) *Runner {
		r, err := NewRunnerWarm(p, spec(defense), warm)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := journalRun(t, r, -1); !bytes.Equal(got, cold(defense)) {
			t.Fatalf("%s batch on the warm cache: journal differs from its cold run", defense)
		}
		return r
	}

	base := run("baseline")
	for key, a := range base.artifacts {
		if a.orig.pre == nil || a.inst.pre != nil {
			t.Fatalf("%s after a baseline-only batch: original cache %p, instrumented %p; want only the original",
				key, a.orig.pre, a.inst.pre)
		}
	}
	misses := warm.Stats().ArtifactMisses

	// Two eilid runners prepare at once, as concurrent fleetd batches
	// may: each must see the one instrumented cache either of them built.
	var racing [2]*Runner
	var wg sync.WaitGroup
	for i := range racing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewRunnerWarm(p, spec("eilid"), warm)
			if err != nil {
				t.Error(err)
			}
			racing[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for key, a := range racing[0].artifacts {
		if b := racing[1].artifacts[key]; b != a || a.inst.pre == nil {
			t.Fatalf("%s: concurrent eilid runners prepared artifacts %p and %p (instrumented cache %p)", key, a, b, a.inst.pre)
		}
	}

	built := map[*artifact]*isa.Predecoded{}
	for pass := 1; pass <= 2; pass++ {
		r := run("eilid")
		for key, a := range r.artifacts {
			if a != base.artifacts[key] {
				t.Fatalf("pass %d: %s rebuilt instead of taken from the Warm", pass, key)
			}
			if a.inst.pre == nil {
				t.Fatalf("pass %d: %s has no instrumented cache after an eilid batch", pass, key)
			}
			if pass == 1 {
				built[a] = a.inst.pre
			} else if a.inst.pre != built[a] {
				t.Fatalf("%s: the second eilid batch rebuilt the instrumented cache", key)
			}
		}
		idle := 0
		for k, ms := range warm.machines {
			if k.spec != core.DefenseEILID {
				continue
			}
			for _, im := range ms {
				idle++
				if got := im.m.CPU.Predecoded(); got != k.a.inst.pre {
					t.Fatalf("pass %d: an eilid machine runs cache %p, not the artifact's %p", pass, got, k.a.inst.pre)
				}
			}
		}
		if idle == 0 {
			t.Fatalf("pass %d: no eilid machine idle in the Warm", pass)
		}
	}
	if st := warm.Stats(); st.ArtifactMisses != misses {
		t.Errorf("the eilid batches built %d firmwares the Warm held", st.ArtifactMisses-misses)
	}
}
