package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"eilid/internal/core"
)

// Report aggregates one fleet run. Results is ordered by job index and
// is fully deterministic; the wall-clock fields describe the run that
// produced it and are excluded from determinism comparisons (see
// ResultsJSON).
type Report struct {
	Workers       int     `json:"workers"`
	Jobs          int     `json:"jobs"`
	Failures      int     `json:"failures"`
	ChecksFailed  int     `json:"checks_failed"`
	TotalCycles   uint64  `json:"total_cycles"`
	TotalInsns    uint64  `json:"total_insns"`
	WallMS        float64 `json:"wall_ms"`
	MCyclesPerSec float64 `json:"sim_mcycles_per_sec"`

	// Matrix is the defense × attack detection matrix: for every attack
	// row (a handcrafted scenario's name, or a generated job's family)
	// and defense column, how many jobs ran, how many the defense
	// detected (reset on) and how many ended with the attacker executing
	// code. App jobs and errored jobs are excluded. Go's JSON encoder
	// sorts map keys, so the marshalled matrix is deterministic.
	Matrix map[string]map[string]*MatrixCell `json:"matrix,omitempty"`

	// Results is ordered by job index; nil on streamed runs, whose
	// per-job results were delivered incrementally instead of retained.
	Results []JobResult `json:"results,omitempty"`
}

// MatrixCell aggregates one (attack row, defense column) cell.
type MatrixCell struct {
	// Jobs is how many jobs landed in the cell.
	Jobs int `json:"jobs"`
	// Detected counts jobs on which the defense reset the device at
	// least once.
	Detected int `json:"detected"`
	// Compromised counts jobs on which attacker code executed.
	Compromised int `json:"compromised"`
}

// add folds one job result into the aggregate counters (not Results).
func (r *Report) add(jr JobResult) {
	r.Jobs++
	r.TotalCycles += jr.Cycles
	r.TotalInsns += jr.Insns
	if jr.Err == "" && (jr.Kind == "attack" || jr.Kind == "gen") {
		row := jr.Name
		if jr.Kind == "gen" {
			row = jr.Family
		}
		if r.Matrix == nil {
			r.Matrix = map[string]map[string]*MatrixCell{}
		}
		col := r.Matrix[row]
		if col == nil {
			col = map[string]*MatrixCell{}
			r.Matrix[row] = col
		}
		cell := col[jr.Defense]
		if cell == nil {
			cell = &MatrixCell{}
			col[jr.Defense] = cell
		}
		cell.Jobs++
		if jr.Resets > 0 {
			cell.Detected++
		}
		if jr.Compromised {
			cell.Compromised++
		}
	}
	switch {
	case jr.Err != "":
		// An errored job never ran its check; count it once as a
		// failure, not again as a failed check.
		r.Failures++
	case !jr.CheckOK:
		r.ChecksFailed++
	}
}

// finish stamps the wall-clock figures.
func (r *Report) finish(wall time.Duration) *Report {
	r.WallMS = float64(wall.Microseconds()) / 1000
	if s := wall.Seconds(); s > 0 {
		r.MCyclesPerSec = float64(r.TotalCycles) / s / 1e6
	}
	return r
}

// Aggregate folds job results into a report — the same folding the
// runner applies incrementally, exported so a resumed batch can rebuild
// the aggregate from merged journal results.
func Aggregate(results []JobResult, workers int, wall time.Duration) *Report {
	rep := &Report{Workers: workers, Results: results}
	for _, jr := range results {
		rep.add(jr)
	}
	return rep.finish(wall)
}

// ResultsJSON marshals only the deterministic per-job results — the
// byte stream that must be identical between a sequential and a
// concurrent run of the same matrix.
func (r *Report) ResultsJSON() ([]byte, error) {
	return json.MarshalIndent(r.Results, "", "  ")
}

// WriteJSON emits the full report (including timing) as JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderTableHeader writes the column header of the per-job table (the
// streaming CLI emits rows as jobs finish, so the header comes first).
func RenderTableHeader(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-7s %-22s %-10s %12s %10s %7s %-6s %s\n",
		"idx", "kind", "name", "defense", "cycles", "insns", "resets", "check", "note")
}

// RenderRow writes one job's table row.
func (jr JobResult) RenderRow(w io.Writer) {
	note := jr.Reason
	if jr.Err != "" {
		note = "ERR: " + jr.Err
	} else if jr.Compromised {
		note = "compromised " + note
	}
	if jr.Oracle != "" {
		note += " [oracle: " + jr.Oracle + "]"
	}
	check := "ok"
	if !jr.CheckOK {
		check = "FAIL"
	}
	fmt.Fprintf(w, "%-5d %-7s %-22s %-10s %12d %10d %7d %-6s %s\n",
		jr.Index, jr.Kind, jr.Name, jr.Defense, jr.Cycles, jr.Insns, jr.Resets, check, note)
}

// matrixColumns returns the defense columns present in the matrix:
// registry order first, then any unregistered names sorted.
func (r *Report) matrixColumns() []string {
	present := map[string]bool{}
	for _, col := range r.Matrix {
		for name := range col {
			present[name] = true
		}
	}
	var out []string
	for _, name := range core.DefenseNames() {
		if present[name] {
			out = append(out, name)
			delete(present, name)
		}
	}
	var rest []string
	for name := range present {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// RenderMatrix writes the defense × attack detection matrix: one row
// per attack (scenario name or generated family), one column per
// defense, each cell detected/jobs with a trailing * when attacker code
// executed on that defense at least once.
func (r *Report) RenderMatrix(w io.Writer) {
	if len(r.Matrix) == 0 {
		return
	}
	cols := r.matrixColumns()
	rows := make([]string, 0, len(r.Matrix))
	for row := range r.Matrix {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	fmt.Fprintf(w, "detection matrix (detected/jobs, * = compromised):\n")
	fmt.Fprintf(w, "%-22s", "attack")
	for _, c := range cols {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-22s", row)
		for _, c := range cols {
			cell := r.Matrix[row][c]
			if cell == nil {
				fmt.Fprintf(w, " %10s", "-")
				continue
			}
			s := fmt.Sprintf("%d/%d", cell.Detected, cell.Jobs)
			if cell.Compromised > 0 {
				s += "*"
			}
			fmt.Fprintf(w, " %10s", s)
		}
		fmt.Fprintln(w)
	}
}

// RenderSummary writes the aggregate lines of the report.
func (r *Report) RenderSummary(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d jobs on %d workers in %.1f ms (%.2f simMcycles/s)\n",
		r.Jobs, r.Workers, r.WallMS, r.MCyclesPerSec)
	r.RenderMatrix(w)
	fmt.Fprintf(w, "totals: %d cycles, %d insns, %d failures, %d check failures\n",
		r.TotalCycles, r.TotalInsns, r.Failures, r.ChecksFailed)
}

// Render writes a human-readable summary table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d jobs on %d workers in %.1f ms (%.2f simMcycles/s)\n",
		r.Jobs, r.Workers, r.WallMS, r.MCyclesPerSec)
	RenderTableHeader(w)
	for _, jr := range r.Results {
		jr.RenderRow(w)
	}
	r.RenderMatrix(w)
	fmt.Fprintf(w, "totals: %d cycles, %d insns, %d failures, %d check failures\n",
		r.TotalCycles, r.TotalInsns, r.Failures, r.ChecksFailed)
}

// WriteNDJSONLine emits one job result as a single JSON line — the
// streaming counterpart of WriteJSON's results array.
func WriteNDJSONLine(w io.Writer, jr JobResult) error {
	b, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
