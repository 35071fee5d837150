// Command eilid-attack runs the control-flow attack suite against both
// the unprotected baseline and the EILID-protected device and prints the
// defence matrix: every attack must compromise the former and merely
// reset the latter.
//
// Usage:
//
//	eilid-attack [-v] [-scenario NAME] [-workers N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"eilid/internal/attacks"
	"eilid/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eilid-attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verbose := fs.Bool("v", false, "print scenario descriptions")
	scenario := fs.String("scenario", "", "run a single scenario by name")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent scenario sweeps")
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

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var results []attacks.Result
	if *scenario != "" {
		found := false
		for _, sc := range attacks.Scenarios() {
			if sc.Name == *scenario {
				r, err := attacks.Run(pipeline, sc)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				results, found = []attacks.Result{r}, true
				break
			}
		}
		if !found {
			fmt.Fprintf(stderr, "unknown scenario %q (try -list)\n", *scenario)
			return 2
		}
	} else {
		results, err = attacks.RunAllWorkers(pipeline, *workers)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "%-22s %-10s %-22s %-30s %s\n", "scenario", "property", "baseline", "EILID device", "defended")
	allDefended := true
	for _, r := range results {
		baseline := "survived"
		if r.Baseline.Compromised {
			baseline = "COMPROMISED"
		}
		prot := "no reaction"
		if r.Protected.Resets > 0 {
			prot = fmt.Sprintf("reset (%s)", r.Protected.Reason)
		}
		if r.Protected.Compromised {
			prot = "COMPROMISED"
		}
		status := "yes"
		if !r.Defended() {
			status = "NO"
			allDefended = false
		}
		fmt.Fprintf(stdout, "%-22s %-10s %-22s %-30s %s\n", r.Scenario.Name, r.Scenario.Property, baseline, prot, status)
		if *verbose {
			fmt.Fprintf(stdout, "    %s\n", r.Scenario.Description)
		}
	}
	if !allDefended {
		return 1
	}
	return 0
}
