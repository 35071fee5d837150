package main

// Batch execution: the default mode over one fleet.Runner, plus the
// -resume path that completes an interrupted journal. Both write the
// same canonical NDJSON journal — byte-identical whatever path computed
// it.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// batchOpts carries the batch-mode flag values.
type batchOpts struct {
	jsonOut string // -json: journal destination ("-" = stdout)
	quiet   bool
}

// runBatch executes the runner's matrix in-process, printing the
// per-job table as jobs complete and, under -json, writing the journal.
// Closing cancel (the signal handler does) stops dispatch and journals
// the batch as interrupted.
func runBatch(runner *fleet.Runner, o batchOpts, cancel <-chan struct{}, stdout, stderr io.Writer) int {
	// The journal is written unbuffered, one Write per line: a consumer
	// tailing it sees every result the moment its job (and its
	// predecessors) finish, and a crash loses at most the OS buffer,
	// never the middle of the file.
	var journal io.Writer
	var f *os.File
	switch o.jsonOut {
	case "":
	case "-":
		// stdout is the NDJSON stream: interleaving the human table
		// would corrupt it for line-oriented consumers.
		o.quiet = true
		journal = stdout
	default:
		var err error
		if f, err = os.Create(o.jsonOut); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		journal = f
	}

	if !o.quiet {
		fleet.RenderTableHeader(stdout)
	}
	row := func(jr fleet.JobResult) {
		if !o.quiet {
			jr.RenderRow(stdout)
		}
	}
	var report *fleet.Report
	var interrupted bool
	var err error
	if journal != nil {
		report, interrupted, err = runner.WriteJournal(journal, cancel, row)
	} else {
		report, interrupted, err = runner.Run(nil, cancel, row)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: writing journal:", err)
		return 1
	}

	if interrupted {
		if o.jsonOut != "" {
			fmt.Fprintf(stderr, "eilid-fleet: interrupted after %d/%d jobs; complete with: eilid-fleet -resume %s\n",
				report.Jobs, len(runner.Jobs()), o.jsonOut)
		} else {
			fmt.Fprintf(stderr, "eilid-fleet: interrupted after %d/%d jobs (no -json journal to resume from)\n",
				report.Jobs, len(runner.Jobs()))
		}
		return 3
	}
	if !o.quiet {
		report.RenderSummary(stdout)
	}
	if report.Failures > 0 || report.ChecksFailed > 0 {
		return 1
	}
	return 0
}

// runResume completes an interrupted (or partly failed) journal: rebuild
// the matrix from the header, validate it, run the remaining jobs while
// appending their results crash-safely, then compact the file into
// canonical job order — byte-identical to an uninterrupted run. exec
// carries the run-site execution knobs; the matrix is the journal's.
func runResume(pipeline *core.Pipeline, path string, exec fleet.ExecSpec, cancel <-chan struct{}, quiet bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
		return 1
	}
	j, err := fleet.ParseJournal(data)
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
		return 2
	}
	if j.Truncated {
		fmt.Fprintln(stderr, "eilid-fleet: resume: journal ends in a torn write (crash mid-job?); the partial line is dropped")
	}
	spec := j.Header.Spec.Batch()
	spec.Exec = exec
	runner, err := fleet.NewRunner(pipeline, spec)
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume: rebuilding matrix:", err)
		return 2
	}
	if err := j.Validate(runner); err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
		return 2
	}
	remaining := j.Remaining()
	if len(remaining) == 0 && j.Complete && !j.Truncated {
		fmt.Fprintf(stdout, "resume: %s is already complete (%d jobs)\n", path, j.Header.Jobs)
		return 0
	}

	start := time.Now()
	if len(remaining) > 0 {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
			return 1
		}
		// The first appended line must start a line of its own: cut a
		// torn tail, and end a last line that lost only its newline.
		err = f.Truncate(int64(j.Intact))
		if err == nil && !bytes.HasSuffix(data[:j.Intact], []byte("\n")) {
			_, err = f.Write([]byte("\n"))
		}
		if err != nil {
			f.Close()
			fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
			return 1
		}
		if !quiet {
			fmt.Fprintf(stdout, "resume: %d/%d jobs already journalled, running %d\n",
				j.Header.Jobs-len(remaining), j.Header.Jobs, len(remaining))
			fleet.RenderTableHeader(stdout)
		}
		var werr error
		ran := 0
		_, interrupted, err := runner.Run(remaining, cancel, func(jr fleet.JobResult) {
			if werr != nil {
				return
			}
			if !quiet {
				jr.RenderRow(stdout)
			}
			// Append before recording: if the write fails the job is
			// still "remaining" on the next resume.
			if werr = fleet.WriteNDJSONLine(f, jr); werr == nil {
				j.Results[jr.Index] = jr
				ran++
			}
		})
		if err == nil {
			err = werr
		}
		if err == nil && interrupted {
			err = fleet.WriteJournalInterrupted(f, j.Header.Jobs-len(remaining)+ran, j.Header.Jobs)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
			return 1
		}
		if interrupted {
			fmt.Fprintf(stderr, "eilid-fleet: resume interrupted with %d jobs still to run; resume again\n",
				len(remaining)-ran)
			return 3
		}
	}

	merged, err := j.Merged()
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
		return 1
	}
	report := fleet.Aggregate(merged, runner.Workers(), time.Since(start))
	// Compact the journal into canonical order — header, all job lines
	// by index, deterministic summary. WriteJournalFile fsyncs the temp
	// file before the rename and the directory after it, so neither a
	// crash nor a power loss can leave a torn or empty file where the
	// complete append-order journal used to be.
	if err := fleet.WriteJournalFile(path, runner.JournalHeader(), merged, report); err != nil {
		fmt.Fprintln(stderr, "eilid-fleet: resume: compacting journal:", err)
		return 1
	}
	if !quiet {
		report.RenderSummary(stdout)
	}
	fmt.Fprintf(stdout, "resume: %s complete (%d jobs, compacted to canonical order)\n", path, j.Header.Jobs)
	if report.Failures > 0 || report.ChecksFailed > 0 {
		return 1
	}
	return 0
}
