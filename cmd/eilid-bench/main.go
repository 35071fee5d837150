// Command eilid-bench regenerates the paper's evaluation artifacts:
//
//	eilid-bench -table 4          # Table IV (software overhead)
//	eilid-bench -table 1|2|3      # the static comparison tables
//	eilid-bench -figure 10        # Figure 10 (hardware cost)
//	eilid-bench -micro            # §VI store/check micro-overhead
//	eilid-bench -all              # everything
//
// -cpuprofile and -memprofile write pprof profiles of the run, so
// performance work on the simulator hot loop can profile the real
// evaluation workload without ad-hoc patches:
//
//	eilid-bench -table 4 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"eilid/internal/core"
	"eilid/internal/eval"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("eilid-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "regenerate a table (1-4)")
	figure := fs.Int("figure", 0, "regenerate a figure (10)")
	micro := fs.Bool("micro", false, "regenerate the micro-overhead numbers")
	all := fs.Bool("all", false, "regenerate everything")
	iters := fs.Int("iters", 50, "interleaved compile rounds for Table IV (each build reports its fastest)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-bench: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *iters < 1 {
		fmt.Fprintf(stderr, "eilid-bench: -iters must be >= 1 (got %d)\n", *iters)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Created upfront so a bad path fails before the run, not
		// after; written at exit. A failed write must fail the run
		// (via the named return), or profiling scripts checking the
		// exit code would proceed as if the profile had been captured.
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is stable
			err := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	did := false
	if *all || *table == 1 {
		eval.RenderTableI(stdout)
		fmt.Fprintln(stdout)
		did = true
	}
	if *all || *table == 2 {
		eval.RenderTableII(stdout)
		fmt.Fprintln(stdout)
		did = true
	}
	if *all || *table == 3 {
		eval.RenderTableIII(stdout, pipeline.Config())
		fmt.Fprintln(stdout)
		did = true
	}
	if *all || *table == 4 {
		t, err := eval.MeasureTableIV(pipeline, eval.MeasureOptions{CompileIterations: *iters})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		t.Render(stdout)
		fmt.Fprintln(stdout)
		did = true
	}
	if *all || *figure == 10 {
		eval.RenderFigure10(stdout)
		fmt.Fprintln(stdout)
		did = true
	}
	if *all || *micro {
		m, err := eval.MeasureMicro(pipeline)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		m.Render(stdout)
		did = true
	}
	if !did {
		fs.Usage()
		return 2
	}
	return 0
}
