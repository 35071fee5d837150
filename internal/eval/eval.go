// Package eval regenerates the paper's evaluation artifacts: Table IV
// (compile-time / binary-size / run-time overhead for the seven
// applications), Figure 10 (hardware cost comparison), the §VI
// micro-overhead numbers (store/check path cost), and the static Tables
// I-III. The cmd/eilid-bench tool and the repository's benchmark suite
// are thin wrappers around this package.
package eval

import (
	"fmt"
	"io"
	"strings"
	"time"

	"eilid/internal/apps"
	"eilid/internal/core"
	"eilid/internal/fleet"
)

// ClockMHz is the simulated core clock, matching the paper's 100 MHz
// Vivado behavioural simulation.
const ClockMHz = 100

// CyclesToMicros converts MCLK cycles to microseconds at ClockMHz.
func CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) / ClockMHz
}

// TableIVRow is one application's measurements.
type TableIVRow struct {
	App string

	// The fastest of the interleaved compile rounds (see
	// MeasureOptions.CompileIterations).
	CompileOrig  time.Duration // one assembler run
	CompileEILID time.Duration // full three-iteration pipeline

	SizeOrig  int // application bytes in PMEM (original)
	SizeEILID int // instrumented bytes incl. the NS gateway

	CyclesOrig  uint64
	CyclesEILID uint64

	Sites int // instrumented locations
}

// Diff percentages, as the paper reports them.
func (r TableIVRow) CompileDiffPct() float64 {
	return pct(float64(r.CompileEILID), float64(r.CompileOrig))
}

func (r TableIVRow) SizeDiffPct() float64 {
	return pct(float64(r.SizeEILID), float64(r.SizeOrig))
}

func (r TableIVRow) TimeDiffPct() float64 {
	return pct(float64(r.CyclesEILID), float64(r.CyclesOrig))
}

func pct(after, before float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / before
}

// TableIV is the full software-overhead table.
type TableIV struct {
	Rows []TableIVRow
	// CompileIterations is how many interleaved rounds timed the two
	// builds (the paper averages 50 runs; each row here reports the
	// fastest round of each build).
	CompileIterations int
}

// Averages returns the mean diff percentages (the paper's bottom row:
// 34.30% / 10.78% / 7.35%).
func (t *TableIV) Averages() (compile, size, runtime float64) {
	if len(t.Rows) == 0 {
		return
	}
	for _, r := range t.Rows {
		compile += r.CompileDiffPct()
		size += r.SizeDiffPct()
		runtime += r.TimeDiffPct()
	}
	n := float64(len(t.Rows))
	return compile / n, size / n, runtime / n
}

// MeasureOptions tunes the harness.
type MeasureOptions struct {
	// CompileIterations is the number of interleaved rounds, each
	// timing one original and one EILID build; a row reports each
	// build's fastest round (default 50, the paper's run count).
	CompileIterations int
	// Apps restricts the set (nil = all seven).
	Apps []apps.App
}

// MeasureTableIV builds and runs every application twice (original on
// the unprotected device, instrumented on the EILID device) and measures
// the three overhead dimensions. The applications are measured one after
// another, so no build competes with another for the CPU while its
// compile time is on the clock. Rows come back in application order.
func MeasureTableIV(p *core.Pipeline, opts MeasureOptions) (*TableIV, error) {
	iters := opts.CompileIterations
	if iters <= 0 {
		iters = 50
	}
	list := opts.Apps
	if list == nil {
		list = apps.All()
	}
	table := &TableIV{CompileIterations: iters}
	for _, app := range list {
		row, err := measureApp(p, app, iters)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", app.Name, err)
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}

func measureApp(p *core.Pipeline, app apps.App, iters int) (TableIVRow, error) {
	row := TableIVRow{App: app.Name}

	// Warm both build paths once (untimed) so allocator and map-growth
	// effects do not land on whichever path is measured first.
	if _, err := p.BuildOriginal(app.Name+".s", app.Source); err != nil {
		return row, err
	}
	if _, err := p.Build(app.Name+".s", app.Source); err != nil {
		return row, err
	}

	// Compile time, in interleaved rounds: each round times one original
	// build (one assembler run) and then one EILID build (the full
	// Figure 2 pipeline: three assembler runs plus two instrumentation
	// passes), and each path reports its fastest round. Other work on
	// the host only ever adds time, so the minimum is the estimate it
	// disturbs least, and interleaving puts both paths through the same
	// host phases.
	var build *core.BuildResult
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := p.BuildOriginal(app.Name+".s", app.Source); err != nil {
			return row, err
		}
		orig := time.Since(start)
		start = time.Now()
		var err error
		if build, err = p.Build(app.Name+".s", app.Source); err != nil {
			return row, err
		}
		eilid := time.Since(start)
		if i == 0 || orig < row.CompileOrig {
			row.CompileOrig = orig
		}
		if i == 0 || eilid < row.CompileEILID {
			row.CompileEILID = eilid
		}
	}

	layout := p.Config().Layout
	row.SizeOrig = build.Original.Image.SizeInRange(layout.PMEMStart, layout.PMEMEnd)
	row.SizeEILID = build.Instrumented.Image.SizeInRange(layout.PMEMStart, layout.PMEMEnd)
	row.Sites = build.Stats.Sites()

	// Run time.
	orig, err := runApp(p, app, build, core.DefenseBaseline)
	if err != nil {
		return row, err
	}
	inst, err := runApp(p, app, build, core.DefenseEILID)
	if err != nil {
		return row, err
	}
	if inst.Resets != 0 {
		return row, fmt.Errorf("benign instrumented run reset %d times", inst.Resets)
	}
	if err := apps.Equivalent(orig, inst); err != nil {
		return row, fmt.Errorf("instrumented behaviour diverged: %w", err)
	}
	row.CyclesOrig = orig.Cycles
	row.CyclesEILID = inst.Cycles
	return row, nil
}

func runApp(p *core.Pipeline, app apps.App, build *core.BuildResult, spec *core.DefenseSpec) (*apps.Inspection, error) {
	// One shared run sequence with the fleet jobs (machine setup,
	// decode cache, UART feed, boot, run, inspect), so the Table IV and
	// fleet paths cannot drift apart.
	insp, _, err := fleet.ExecuteApp(p, app, build, spec)
	if err != nil {
		return nil, err
	}
	if chk := app.Check(insp); chk != nil {
		return nil, fmt.Errorf("behaviour check failed: %w", chk)
	}
	return insp, nil
}

// PaperTableIV holds the published Table IV numbers for side-by-side
// reporting (compile ms, binary bytes, running µs; original then EILID).
type PaperRow struct {
	App                          string
	CompileOrigMS, CompileEMS    float64
	SizeOrig, SizeE              int
	TimeOrigUS, TimeEUS          float64
	CompilePct, SizePct, TimePct float64
}

// PaperTableIV is the published table.
func PaperTableIV() []PaperRow {
	return []PaperRow{
		{"LightSensor", 321, 419, 233, 246, 251, 277, 30.53, 5.58, 10.36},
		{"UltrasonicRanger", 334, 423, 296, 349, 2094, 2303, 26.65, 17.91, 9.98},
		{"FireSensor", 341, 484, 465, 565, 4105, 4648, 41.94, 21.51, 13.23},
		{"SyringePump", 318, 458, 274, 308, 2151, 2265, 44.03, 12.41, 5.30},
		{"TempSensor", 351, 465, 305, 325, 1257, 1327, 32.48, 6.56, 5.57},
		{"Charlieplexing", 360, 455, 325, 342, 4930, 5146, 26.39, 5.23, 4.38},
		{"LcdSensor", 370, 474, 604, 642, 4877, 5005, 38.11, 6.29, 2.62},
	}
}

// PaperAverages are the published bottom-row averages.
func PaperAverages() (compile, size, runtime float64) { return 34.30, 10.78, 7.35 }

// Render writes the measured table with the paper's run-time overhead
// column alongside.
func (t *TableIV) Render(w io.Writer) {
	paper := map[string]PaperRow{}
	for _, r := range PaperTableIV() {
		paper[r.App] = r
	}
	fmt.Fprintf(w, "Table IV: EILID software overhead (compile averaged over %d builds; run time at %d MHz)\n", t.CompileIterations, ClockMHz)
	fmt.Fprintf(w, "%-17s %12s %12s %8s | %7s %7s %7s | %10s %10s %7s %7s\n",
		"Application", "compile-orig", "compile-EILID", "diff", "B-orig", "B-EILID", "diff", "us-orig", "us-EILID", "diff", "paper")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-17s %12s %12s %7.2f%% | %7d %7d %6.2f%% | %10.1f %10.1f %6.2f%% %6.2f%%\n",
			r.App,
			r.CompileOrig.Round(time.Microsecond), r.CompileEILID.Round(time.Microsecond), r.CompileDiffPct(),
			r.SizeOrig, r.SizeEILID, r.SizeDiffPct(),
			CyclesToMicros(r.CyclesOrig), CyclesToMicros(r.CyclesEILID), r.TimeDiffPct(),
			paper[r.App].TimePct)
	}
	c, s, rt := t.Averages()
	pc, ps, prt := PaperAverages()
	fmt.Fprintf(w, "%-17s %12s %12s %7.2f%% | %7s %7s %6.2f%% | %10s %10s %6.2f%% %6.2f%%\n",
		"Average", "", "", c, "", "", s, "", "", rt, prt)
	fmt.Fprintf(w, "(paper averages: compile %.2f%%, size %.2f%%, run time %.2f%%)\n", pc, ps, prt)
	fmt.Fprintln(w, strings.TrimRight(`
Notes: compile-time ratios are not comparable in absolute terms (the
paper re-runs a C toolchain; this pipeline is a native assembler), and
size percentages run higher because the hand-written benchmark apps are
smaller than the paper's C builds while the fixed NS gateway is counted
with the application. The run-time column is the like-for-like result.`, "\n"))
}
