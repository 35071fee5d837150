// Command eilid-fleet runs the full application × defense ×
// attack-scenario matrix through the fleet runner: every firmware is
// assembled and predecoded once, then the jobs execute concurrently on
// independent simulated machines, and the deterministic per-job results
// are aggregated into a report ending in a defense × attack detection
// matrix.
//
// Usage:
//
//	eilid-fleet [-workers N] [-repeat N] [-apps a,b] [-scenarios x,y]
//	            [-defenses baseline,eilid,shadow,critvar]
//	            [-gen N] [-seed S] [-json out.ndjson] [-q]
//	            [-job-timeout 2m]
//	eilid-fleet -spec batch.json [execution flags] | -dump-spec [matrix flags]
//	eilid-fleet -resume out.ndjson [-workers N] [-q]
//
// Every mode is a view over one canonical fleet.BatchSpec: the matrix
// and execution flags parse into it, `-spec batch.json` loads it from
// JSON instead (`-` reads stdin; explicitly-set execution flags still
// override), and `-dump-spec` prints the resolved canonical spec and
// exits — so a batch can be captured, versioned and replayed exactly.
// The journal header fingerprint is derived from the same spec, and a
// spec-driven run is byte-identical to the equivalent flag-driven run.
//
// -defenses selects the defense columns from the registry
// (core.Defenses); the default runs every registered defense.
//
// -gen N adds a third matrix dimension of N seed-derived attack
// variants (internal/scenario) generated from -seed, each run against
// every selected defense. Generation depends only on (seed, index), so
// the per-job NDJSON lines are byte-identical across runs and worker
// counts, and any record is reproducible from its seed and index.
//
// -json streams a resumable NDJSON journal: a header line
// fingerprinting the matrix, one JSON line per job written and flushed
// as the job completes (in job order), and one deterministic summary
// line. The whole job list is enumerated in memory up front (NewRunner
// builds every Job), but results are not retained: each is written as
// it completes, and only the aggregate counters and the out-of-order
// window stay in memory. `-json -` sends the stream to stdout and
// implies -q, keeping the stream pure NDJSON.
//
// On SIGINT/SIGTERM the fleet stops dispatch, drains the in-flight
// jobs, journals an interrupted marker and exits with code 3; a second
// signal force-quits. `-resume out.ndjson` rebuilds the matrix from the
// journal header (validating its fingerprint), runs only the jobs not
// yet completed — including any recorded as failed, so a job that
// panicked or hit the watchdog re-runs — appends their results
// crash-safely, and then compacts the file into canonical job order.
// The compacted file is byte-identical to one from an uninterrupted
// run.
//
// Every job runs inside the runner's fault boundary: a panicking job
// becomes a deterministic failure record instead of killing the batch,
// and -job-timeout arms a per-job wall-clock watchdog that fails
// (rather than hangs on) runaway jobs. Neither is retried in-run; a
// resume re-runs them.
//
// The journal is byte-identical across worker counts — the fleet's
// determinism contract, checkable from the command line by comparing a
// `-workers 1` journal with a `-workers 8` one.
//
// Exit codes: 0 success; 1 job failures, failed checks or I/O errors;
// 2 usage or spec errors; 3 interrupted (journal flushed, resumable).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"eilid/internal/core"
	"eilid/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eilid-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size (1 = sequential)")
	repeat := fs.Int("repeat", 1, "repetitions of every job")
	appsFlag := fs.String("apps", "", "comma-separated application subset (default: all)")
	scenariosFlag := fs.String("scenarios", "", "comma-separated scenario subset (default: all)")
	noApps := fs.Bool("no-apps", false, "skip the application dimension")
	noScenarios := fs.Bool("no-scenarios", false, "skip the attack dimension")
	defensesFlag := fs.String("defenses", "", "comma-separated defense columns (default: all registered)")
	gen := fs.Int("gen", 0, "number of generated attack variants to add (0 = none)")
	seed := fs.Uint64("seed", 1, "seed for the generated dimension")
	specFile := fs.String("spec", "", "load the batch spec from this JSON file (- for stdin) instead of the matrix flags")
	dumpSpec := fs.Bool("dump-spec", false, "print the resolved canonical batch spec as JSON and exit")
	jsonOut := fs.String("json", "", "stream the results as a resumable NDJSON journal to this file (- for stdout)")
	resume := fs.String("resume", "", "resume an interrupted journal: run the remaining jobs and compact the file")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "per-job wall-clock watchdog; runaway jobs fail instead of hanging the batch (0 = off)")
	quiet := fs.Bool("q", false, "suppress the per-job table")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-fleet: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	// set records which flags were given explicitly — the difference
	// between "the user asked for this value" and "the flag default",
	// which drives both conflict detection and spec-file overrides.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Nonsense matrix flags and a worker count below 1 (a spec's 0
	// means GOMAXPROCS) are usage errors (exit 2), caught before any
	// work. The other execution knobs are checked by fleet.ResolveSpec,
	// as for a -spec file or a POST /batches body.
	switch {
	case *workers < 1:
		fmt.Fprintf(stderr, "eilid-fleet: -workers must be >= 1 (got %d)\n", *workers)
		return 2
	case *repeat < 1:
		fmt.Fprintf(stderr, "eilid-fleet: -repeat must be >= 1 (got %d)\n", *repeat)
		return 2
	case *gen < 0:
		fmt.Fprintf(stderr, "eilid-fleet: -gen must be >= 0 (got %d)\n", *gen)
		return 2
	}

	var resumeConflicts []string
	if *resume != "" {
		// -resume rebuilds the matrix from the journal header; flags
		// that would select a different matrix contradict that and are
		// rejected rather than ignored.
		incompatible := map[string]bool{
			"apps": true, "scenarios": true, "no-apps": true, "no-scenarios": true,
			"defenses": true, "repeat": true, "gen": true, "seed": true,
			"json": true, "spec": true, "dump-spec": true,
		}
		fs.Visit(func(f *flag.Flag) {
			if incompatible[f.Name] {
				resumeConflicts = append(resumeConflicts, "-"+f.Name)
			}
		})
		if len(resumeConflicts) > 0 {
			fmt.Fprintf(stderr, "eilid-fleet: -resume takes the matrix from the journal; drop %s\n", strings.Join(resumeConflicts, ", "))
			return 2
		}
	}

	// Everything below the resume path runs over one canonical
	// fleet.BatchSpec, assembled from the flags or loaded via -spec.
	var spec fleet.BatchSpec
	if *resume == "" {
		var code int
		spec, code = assembleSpec(specFlags{
			specFile:    *specFile,
			apps:        *appsFlag,
			scenarios:   *scenariosFlag,
			noApps:      *noApps,
			noScenarios: *noScenarios,
			defenses:    *defensesFlag,
			repeat:      *repeat,
			gen:         *gen,
			seed:        *seed,
			workers:     *workers,
			jobTimeout:  *jobTimeout,
			set:         set,
		}, stderr)
		if code != 0 {
			return code
		}
	}

	if *dumpSpec {
		return runDumpSpec(spec, stdout, stderr)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops dispatch and
	// drains the in-flight jobs so the journal ends on a clean record
	// boundary; a second one force-quits. Only this goroutine closes
	// cancel, and only on the first signal.
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "eilid-fleet: %v: stopping dispatch, draining in-flight jobs (signal again to force quit)\n", s)
		close(cancel)
		if _, ok := <-sigc; ok {
			// Hard quit skips deferred cleanup, so a WriteFileAtomic in
			// flight (resume compaction) can orphan its temp file
			// mid-rename. Temp names are unique and the next atomic
			// write to the same journal reaps `path.tmp*` leftovers, so
			// the orphan can neither be mistaken for a journal nor
			// accrete across crashes.
			os.Exit(130)
		}
	}()

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *resume != "" {
		exec := fleet.ExecSpec{JobTimeout: fleet.Duration(*jobTimeout)}
		if set["workers"] {
			// As in assembleSpec: the default stays "0 = GOMAXPROCS at
			// run time", which ResolveSpec accepts on any host.
			exec.Workers = *workers
		}
		return runResume(pipeline, *resume, exec, cancel, *quiet, stdout, stderr)
	}

	runner, err := fleet.NewRunner(pipeline, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return runBatch(runner, batchOpts{jsonOut: *jsonOut, quiet: *quiet}, cancel, stdout, stderr)
}
