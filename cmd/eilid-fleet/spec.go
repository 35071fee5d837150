package main

// Spec assembly: every non-resume mode runs over one canonical
// fleet.BatchSpec, built here — from the matrix/execution/fault flags,
// or loaded from JSON via -spec (the same serialized form -dump-spec
// prints and eilid-fleetd accepts).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"eilid/internal/fleet"
)

// specFlags carries the parsed flag values the spec assembly consumes,
// plus the set of flags the user gave explicitly.
type specFlags struct {
	specFile    string
	apps        string
	scenarios   string
	noApps      bool
	noScenarios bool
	defenses    string
	repeat      int
	gen         int
	seed        uint64
	workers     int
	recycle     bool
	jobTimeout  time.Duration
	retries     int

	faultPanic     string
	faultTransient string
	faultHang      string

	set map[string]bool // flag name → explicitly given
}

// specCarriedFlags are the flags a -spec file makes redundant: they
// select the matrix or inject job-level faults, which is exactly what
// the file carries. Combining them is a contradiction, rejected rather
// than silently merged.
var specCarriedFlags = []string{
	"apps", "scenarios", "no-apps", "no-scenarios", "defenses",
	"repeat", "gen", "seed",
	"fault-panic", "fault-transient", "fault-hang",
	"fault-seed", "fault-panics", "fault-transients",
}

// assembleSpec builds the run's BatchSpec. With -spec it loads the
// file (explicitly-set execution flags still override — they are
// run-site knobs, not batch identity); otherwise it assembles the spec
// from the flag values. Returns a non-zero exit code on conflict or
// decode errors.
func assembleSpec(fv specFlags, stderr io.Writer) (fleet.BatchSpec, int) {
	if fv.specFile != "" {
		for _, name := range specCarriedFlags {
			if fv.set[name] {
				fmt.Fprintf(stderr, "eilid-fleet: -spec carries the matrix and fault selection; drop -%s\n", name)
				return fleet.BatchSpec{}, 2
			}
		}
		spec, err := loadSpec(fv.specFile)
		if err != nil {
			fmt.Fprintln(stderr, "eilid-fleet:", err)
			return fleet.BatchSpec{}, 2
		}
		if fv.set["workers"] {
			spec.Exec.Workers = fv.workers
		}
		if fv.set["recycle"] {
			spec.Exec.NoRecycle = !fv.recycle
		}
		if fv.set["job-timeout"] {
			spec.Exec.JobTimeout = fleet.Duration(fv.jobTimeout)
		}
		if fv.set["retries"] {
			spec.Exec.MaxRetries = fv.retries
		}
		return spec, 0
	}

	panicAt, err1 := splitInts(fv.faultPanic)
	transientAt, err2 := splitInts(fv.faultTransient)
	hangAt, err3 := splitInts(fv.faultHang)
	for _, e := range []error{err1, err2, err3} {
		if e != nil {
			fmt.Fprintln(stderr, "eilid-fleet:", e)
			return fleet.BatchSpec{}, 2
		}
	}
	spec := fleet.BatchSpec{
		Matrix: fleet.MatrixSpec{
			Apps:        splitList(fv.apps),
			Scenarios:   splitList(fv.scenarios),
			NoApps:      fv.noApps,
			NoScenarios: fv.noScenarios,
			Defenses:    splitList(fv.defenses),
			Repeat:      fv.repeat,
			Generated:   fleet.GeneratedSpec{Seed: fv.seed, Count: fv.gen},
		},
		Exec: fleet.ExecSpec{
			NoRecycle:  !fv.recycle,
			JobTimeout: fleet.Duration(fv.jobTimeout),
			MaxRetries: fv.retries,
		},
		Fault: fleet.FaultSpec{PanicAt: panicAt, TransientAt: transientAt, HangAt: hangAt},
	}
	if fv.set["workers"] {
		// Only an explicit -workers is baked into the spec; the default
		// stays the serialization-stable "0 = GOMAXPROCS at run time",
		// so a dumped spec does not pin this machine's core count.
		spec.Exec.Workers = fv.workers
	}
	return spec, 0
}

// loadSpec reads a serialized BatchSpec from a JSON file, or from
// stdin when path is "-". Unknown fields are errors: a typo'd knob in
// a spec file must not silently select a different batch.
func loadSpec(path string) (fleet.BatchSpec, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return fleet.BatchSpec{}, fmt.Errorf("spec: %w", err)
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec fleet.BatchSpec
	if err := dec.Decode(&spec); err != nil {
		return fleet.BatchSpec{}, fmt.Errorf("spec %s: %w", path, err)
	}
	return spec, nil
}

// runDumpSpec resolves the assembled spec and prints its canonical
// JSON — the exact document -spec accepts, with the matrix normalized
// to the explicit name lists the journal fingerprint covers.
func runDumpSpec(spec fleet.BatchSpec, stdout, stderr io.Writer) int {
	resolved, err := fleet.ResolveSpec(spec)
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet:", err)
		return 2
	}
	b, err := json.MarshalIndent(resolved, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "eilid-fleet:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
