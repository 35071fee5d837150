package mem_test

import (
	"testing"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/mem"
	"eilid/internal/scenario"
)

// wantRestorePages pins the pages each handcrafted attack job leaves
// marked written, the pages the Recycle before the next job copies, for
// the baseline, eilid, shadow and critvar columns in that order. A
// monitor reset marks 9: the 8 DMEM pages and the secure-data page.
var wantRestorePages = map[string][4]int{
	"stack-smash":         {1, 9, 9, 1},
	"rop-chain":           {1, 9, 9, 1},
	"isr-context-tamper":  {1, 9, 9, 1},
	"fnptr-hijack":        {2, 9, 2, 9},
	"code-injection":      {2, 9, 2, 9},
	"shadow-stack-tamper": {1, 9, 1, 1},
}

// wantGeneratedPages is the total over scenario.Generate(1, 64) in all
// four columns: 256 jobs, 3.9 pages each on average.
const wantGeneratedPages = 1000

// TestSnapshotRestorePages pins the restore cost of attack jobs as a
// count: each job runs on a machine sealed with Snapshot, as the fleet
// checks one out, and the test reads the pages it left marked. The
// counts are simulated, so they do not depend on the host.
func TestSnapshotRestorePages(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defenses := core.Defenses()
	if len(defenses) != 4 {
		t.Fatalf("%d defense columns; the table pins 4", len(defenses))
	}
	pages := func(build *core.BuildResult, spec *core.DefenseSpec, sc attacks.Scenario) int {
		t.Helper()
		tg := attacks.TargetFor(p, build, spec)
		m, err := tg.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		m.Snapshot()
		if _, err := attacks.ExecuteOn(m, tg, sc); err != nil {
			t.Fatalf("%s %s: %v", sc.Name, spec.Name, err)
		}
		return mem.WrittenPages(m.Space)
	}
	for _, sc := range attacks.Scenarios() {
		build, err := p.Build(sc.Name+".s", sc.Source)
		if err != nil {
			t.Fatal(err)
		}
		var got [4]int
		for col, spec := range defenses {
			got[col] = pages(build, spec, sc)
		}
		if want, ok := wantRestorePages[sc.Name]; !ok || got != want {
			t.Errorf("%s: %v pages marked, want %v (baseline/eilid/shadow/critvar)", sc.Name, got, want)
		}
	}
	batch := scenario.Generate(1, 64)
	victims := map[string]*core.BuildResult{}
	for _, v := range batch.Victims {
		if victims[v.Name], err = p.Build(v.Name+".s", v.Source); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, g := range batch.Items {
		for _, spec := range defenses {
			total += pages(victims[g.Victim], spec, g.Scenario)
		}
	}
	jobs := len(batch.Items) * len(defenses)
	if total != wantGeneratedPages {
		t.Errorf("Generate(1, 64): %d pages marked over %d jobs (%.2f each), want %d", total, jobs,
			float64(total)/float64(jobs), wantGeneratedPages)
	}
}

// wantSealedPages pins the pages each Table IV app's sealed snapshot
// holds, in the original build and in the eilid build with the EILIDsw
// ROM. Every handcrafted attack and generated victim holds 2 and 4.
var wantSealedPages = map[string][2]int{
	"LightSensor":      {2, 4},
	"UltrasonicRanger": {2, 5},
	"FireSensor":       {2, 5},
	"SyringePump":      {2, 5},
	"TempSensor":       {2, 5},
	"Charlieplexing":   {2, 4},
	"LcdSensor":        {2, 5},
}

// TestSnapshotRestoreSealedPages pins what a sealed machine's snapshot
// holds: only the pages of its image that hold a non-zero byte (2 of
// the 256: the code and the vector table; the EILIDsw ROM adds 2–3),
// for each Table IV app, handcrafted attack and generated victim of
// scenario.Generate(1, 16), in the original build (the baseline,
// shadow and critvar columns) and the instrumented one (eilid). A
// snapshot that held pages of zeros, or missed a page, changes a count.
func TestSnapshotRestoreSealedPages(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, source string, want [2]int) {
		t.Helper()
		build, err := p.Build(name+".s", source)
		if err != nil {
			t.Fatal(err)
		}
		var got [2]int
		for i, spec := range []*core.DefenseSpec{core.DefenseBaseline, core.DefenseEILID} {
			m, err := attacks.TargetFor(p, build, spec).NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = mem.SnapshotPages(m.Space.Snapshot())
		}
		if got != want {
			t.Errorf("%s: sealed snapshots hold %v pages, want %v (original/eilid)", name, got, want)
		}
	}
	all := apps.All()
	if len(all) != len(wantSealedPages) {
		t.Fatalf("%d apps; the table pins %d", len(all), len(wantSealedPages))
	}
	for _, app := range all {
		check(app.Name, app.Source, wantSealedPages[app.Name])
	}
	for _, sc := range attacks.Scenarios() {
		check(sc.Name, sc.Source, [2]int{2, 4})
	}
	for _, v := range scenario.Generate(1, 16).Victims {
		check(v.Name, v.Source, [2]int{2, 4})
	}
}
