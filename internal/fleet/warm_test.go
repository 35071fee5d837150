package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
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
