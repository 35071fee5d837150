package main

// Batch execution: the default mode's aggregate/stream/verify paths
// over one fleet.Runner, plus the -resume path that completes an
// interrupted journal. Both write the same canonical NDJSON journal —
// byte-identical whatever path computed it.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

// journalWriter is the NDJSON sink with every write, flush and close
// error surfaced: a journal that looks complete but lost its tail to a
// full disk is worse than a loud failure.
type journalWriter struct {
	f *os.File // nil when the journal goes to stdout
	w *bufio.Writer
}

func (jw *journalWriter) result(jr fleet.JobResult) error {
	if err := fleet.WriteNDJSONLine(jw.w, jr); err != nil {
		return err
	}
	// Flush per job: a consumer tailing the file sees every result the
	// moment its job (and its predecessors) finish, and a crash loses at
	// most the OS buffer, never silently drops the middle of the file.
	return jw.w.Flush()
}

// close flushes and closes the sink, reporting the first error; the
// stdout variant only flushes.
func (jw *journalWriter) close() error {
	err := jw.w.Flush()
	if jw.f != nil {
		if cerr := jw.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// batchOpts carries the batch-mode flag values.
type batchOpts struct {
	jsonOut        string // -json: journal destination ("-" = stdout)
	verify         bool
	quiet          bool
	interruptAfter int
}

// runBatch executes the runner's matrix in-process: streaming (the
// default), or aggregate with a sequential replay under -verify.
func runBatch(runner *fleet.Runner, o batchOpts, cancel <-chan struct{}, interrupt func(), stdout, stderr io.Writer) int {
	// The NDJSON journal sink: a flushed writer when -json is set.
	var jw *journalWriter
	if o.jsonOut != "" {
		jw = &journalWriter{}
		if o.jsonOut == "-" {
			// stdout is the NDJSON stream: interleaving the human table
			// would corrupt it for line-oriented consumers.
			o.quiet = true
			jw.w = bufio.NewWriter(stdout)
		} else {
			f, err := os.Create(o.jsonOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			jw.f = f
			jw.w = bufio.NewWriter(f)
		}
		err := fleet.WriteJournalHeader(jw.w, runner.JournalHeader())
		if err == nil {
			err = jw.w.Flush()
		}
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: writing journal header:", err)
			jw.close()
			return 1
		}
	}

	emitted := 0
	if o.interruptAfter == 0 {
		interrupt()
	}
	emit := func(jr fleet.JobResult) error {
		if !o.quiet {
			jr.RenderRow(stdout)
		}
		if jw != nil {
			if err := jw.result(jr); err != nil {
				return err
			}
		}
		emitted++
		if o.interruptAfter > 0 && emitted == o.interruptAfter {
			interrupt()
		}
		return nil
	}

	var report *fleet.Report
	interrupted := false
	if o.verify {
		// Verification compares the full concurrent result set against a
		// sequential replay, so this path aggregates in memory.
		rep, err := runner.Run()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		seq, err := runner.RunSequential()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		a, errA := rep.ResultsJSON()
		b, errB := seq.ResultsJSON()
		if errA != nil || errB != nil {
			fmt.Fprintln(stderr, "verify: marshalling failed:", errA, errB)
			return 1
		}
		if !bytes.Equal(a, b) {
			fmt.Fprintln(stderr, "verify: FAILED — concurrent results differ from the sequential replay")
			return 1
		}
		fmt.Fprintf(stdout, "verify: %d-worker run byte-identical to sequential replay (%d jobs)\n",
			rep.Workers, rep.Jobs)
		if !o.quiet {
			fleet.RenderTableHeader(stdout)
		}
		for _, jr := range rep.Results {
			if err := emit(jr); err != nil {
				fmt.Fprintln(stderr, err)
				if jw != nil {
					jw.close()
				}
				return 1
			}
		}
		report = rep
	} else {
		if !o.quiet {
			fleet.RenderTableHeader(stdout)
		}
		var emitErr error
		rep, intr, err := runner.RunStreamCancel(cancel, func(jr fleet.JobResult) {
			if emitErr == nil {
				emitErr = emit(jr)
			}
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if emitErr != nil {
			fmt.Fprintln(stderr, emitErr)
			if jw != nil {
				jw.close()
			}
			return 1
		}
		report = rep
		interrupted = intr
	}

	if interrupted {
		if jw != nil {
			err := fleet.WriteJournalInterrupted(jw.w, emitted, len(runner.Jobs()))
			if cerr := jw.close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, "eilid-fleet: writing interrupted journal:", err)
				return 1
			}
			fmt.Fprintf(stderr, "eilid-fleet: interrupted after %d/%d jobs; complete with: eilid-fleet -resume %s\n",
				emitted, len(runner.Jobs()), o.jsonOut)
		} else {
			fmt.Fprintf(stderr, "eilid-fleet: interrupted after %d/%d jobs (no -json journal to resume from)\n",
				emitted, len(runner.Jobs()))
		}
		return 3
	}

	if !o.quiet {
		report.RenderSummary(stdout)
	}
	if jw != nil {
		err := fleet.WriteJournalSummary(jw.w, report)
		if cerr := jw.close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: writing journal summary:", err)
			return 1
		}
	}
	if report.Failures > 0 || report.ChecksFailed > 0 {
		return 1
	}
	return 0
}

// runResume completes an interrupted (or fault-failed) journal: rebuild
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
		fmt.Fprintln(stderr, "eilid-fleet: resume: journal ends in a torn write (crash mid-job?); the partial line is ignored")
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
		jw := &journalWriter{f: f, w: bufio.NewWriter(f)}
		if !quiet {
			fmt.Fprintf(stdout, "resume: %d/%d jobs already journalled, running %d\n",
				j.Header.Jobs-len(remaining), j.Header.Jobs, len(remaining))
			fleet.RenderTableHeader(stdout)
		}
		var emitErr error
		ran := 0
		interrupted, err := runner.RunIndices(remaining, cancel, func(jr fleet.JobResult) {
			if emitErr != nil {
				return
			}
			if !quiet {
				jr.RenderRow(stdout)
			}
			// Append before recording: if the write fails the job is
			// still "remaining" on the next resume.
			if emitErr = jw.result(jr); emitErr == nil {
				j.Results[jr.Index] = jr
				ran++
			}
		})
		if err == nil {
			err = emitErr
		}
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
			jw.close()
			return 1
		}
		if interrupted {
			werr := fleet.WriteJournalInterrupted(jw.w, j.Header.Jobs-len(remaining)+ran, j.Header.Jobs)
			if cerr := jw.close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(stderr, "eilid-fleet: resume: writing interrupted journal:", werr)
				return 1
			}
			fmt.Fprintf(stderr, "eilid-fleet: resume interrupted with %d jobs still to run; resume again\n",
				len(remaining)-ran)
			return 3
		}
		if err := jw.close(); err != nil {
			fmt.Fprintln(stderr, "eilid-fleet: resume:", err)
			return 1
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
