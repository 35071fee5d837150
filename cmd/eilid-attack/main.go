// Command eilid-attack runs the control-flow attack suite against both
// the unprotected baseline and the EILID-protected device and prints the
// defence matrix: every attack must compromise the former and merely
// reset the latter, for the reason its scenario declares.
//
// The sweep is a fleet batch: the selected scenarios crossed with the
// baseline and eilid defense columns, run through fleet.Runner, whose
// per-job check is the verdict. A scenario is defended when both of its
// jobs pass.
//
// Usage:
//
//	eilid-attack [-v] [-scenario NAME] [-list]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eilid-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print scenario descriptions")
	scenario := fs.String("scenario", "", "run a single scenario by name")
	list := fs.Bool("list", false, "list scenario names")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-attack: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	if *list {
		for _, sc := range attacks.Scenarios() {
			fmt.Fprintf(stdout, "%-22s %s\n", sc.Name, sc.Property)
		}
		return 0
	}

	selected := attacks.Scenarios()
	var names []string // nil: every scenario
	if *scenario != "" {
		i := slices.IndexFunc(selected, func(sc attacks.Scenario) bool { return sc.Name == *scenario })
		if i < 0 {
			fmt.Fprintf(stderr, "unknown scenario %q (try -list)\n", *scenario)
			return 2
		}
		selected, names = selected[i:i+1], []string{*scenario}
	}

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	runner, err := fleet.NewRunner(pipeline, fleet.BatchSpec{Matrix: fleet.MatrixSpec{
		NoApps:    true,
		Scenarios: names,
		Defenses:  []string{core.DefenseBaseline.Name, core.DefenseEILID.Name},
	}})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Jobs come in matrix order: each scenario's baseline job, then its
	// eilid job.
	var results []fleet.JobResult
	if _, _, err := runner.Run(nil, nil, func(jr fleet.JobResult) { results = append(results, jr) }); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "%-22s %-10s %-22s %-30s %s\n", "scenario", "property", "baseline", "EILID device", "defended")
	allDefended := true
	for i, sc := range selected {
		base, prot := results[2*i], results[2*i+1]
		for _, jr := range []fleet.JobResult{base, prot} {
			if jr.Err != "" {
				fmt.Fprintf(stderr, "eilid-attack: %s under %s: %s\n", jr.Name, jr.Defense, jr.Err)
			}
		}
		baseline := "survived"
		if base.Compromised {
			baseline = "COMPROMISED"
		}
		verdict := "no reaction"
		if prot.Resets > 0 {
			verdict = fmt.Sprintf("reset (%s)", prot.Reason)
		}
		if prot.Compromised {
			verdict = "COMPROMISED"
		}
		status := "yes"
		if !base.CheckOK || !prot.CheckOK {
			status = "NO"
			allDefended = false
		}
		fmt.Fprintf(stdout, "%-22s %-10s %-22s %-30s %s\n", sc.Name, sc.Property, baseline, verdict, status)
		if *verbose {
			fmt.Fprintf(stdout, "    %s\n", sc.Description)
		}
	}
	if !allDefended {
		return 1
	}
	return 0
}
