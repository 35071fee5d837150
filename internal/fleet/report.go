package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"eilid/internal/core"
)

// Report aggregates one fleet run. The counters and the matrix are
// deterministic; the wall-clock fields describe the run that produced
// it and stay out of the journal.
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

// add folds one job result into the aggregate counters.
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
	rep := &Report{Workers: workers}
	for _, jr := range results {
		rep.add(jr)
	}
	return rep.finish(wall)
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

// WriteNDJSONLine emits one job result as a single JSON line, in one
// Write: the bytes json.Marshal gives for jr, then a newline. The line
// is appended by hand (appendJobResult), with no reflection.
func WriteNDJSONLine(w io.Writer, jr JobResult) error {
	b := appendJobResult(make([]byte, 0, 256), &jr)
	_, err := w.Write(append(b, '\n'))
	return err
}

// appendJobResult appends what json.Marshal gives for jr: JobResult's
// fields (Job's first, as embedded) in declaration order, under their
// json tags, omitempty fields left out when zero. A field added to
// JobResult or Job needs its case here; TestJournalLineMatchesMarshal
// fails until it has one.
func appendJobResult(b []byte, jr *JobResult) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(jr.Index), 10)
	b = appendString(append(b, `,"kind":`...), jr.Kind)
	b = appendString(append(b, `,"name":`...), jr.Name)
	b = appendString(append(b, `,"defense":`...), jr.Defense)
	b = strconv.AppendInt(append(b, `,"repeat":`...), int64(jr.Repeat), 10)
	if jr.Family != "" {
		b = appendString(append(b, `,"family":`...), jr.Family)
	}
	if jr.Victim != "" {
		b = appendString(append(b, `,"victim":`...), jr.Victim)
	}
	b = strconv.AppendUint(append(b, `,"cycles":`...), jr.Cycles, 10)
	b = strconv.AppendUint(append(b, `,"insns":`...), jr.Insns, 10)
	b = strconv.AppendBool(append(b, `,"halted":`...), jr.Halted)
	b = strconv.AppendUint(append(b, `,"exit_code":`...), uint64(jr.ExitCode), 10)
	b = strconv.AppendInt(append(b, `,"resets":`...), int64(jr.Resets), 10)
	if jr.Reason != "" {
		b = appendString(append(b, `,"reason":`...), jr.Reason)
	}
	if jr.ReasonsRecorded != 0 {
		b = strconv.AppendInt(append(b, `,"reasons_recorded":`...), int64(jr.ReasonsRecorded), 10)
	}
	if jr.UART != "" {
		b = appendString(append(b, `,"uart":`...), jr.UART)
	}
	if jr.Compromised {
		b = append(b, `,"compromised":true`...)
	}
	b = strconv.AppendBool(append(b, `,"check_ok":`...), jr.CheckOK)
	if jr.Oracle != "" {
		b = appendString(append(b, `,"oracle":`...), jr.Oracle)
	}
	if jr.Err != "" {
		b = appendString(append(b, `,"error":`...), jr.Err)
	}
	return append(b, '}')
}

// appendString appends s as json.Marshal quotes it. A string with no
// byte Marshal escapes or replaces (a quote, a backslash, a control
// byte, <, > or &) and no byte of 0x80 or above is copied between
// quotes as it is; any other string goes through Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
