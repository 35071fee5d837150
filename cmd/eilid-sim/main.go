// Command eilid-sim runs firmware on the simulated openMSP430 device,
// optionally under EILID protection, and reports the observable outcome
// (cycles, UART transcript, GPIO activity, LCD contents, resets).
//
// Usage:
//
//	eilid-sim -app LightSensor [-unprotected] [-uart "input"] [-max N]
//	eilid-sim -file firmware.s [-uart "input"] [-max 10000000]
//
// A built-in application brings its own UART input and cycle budget;
// an explicit -uart or -max overrides them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eilid/internal/apps"
	"eilid/internal/asm"
	"eilid/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eilid-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "", "run a built-in Table IV application")
	file := fs.String("file", "", "run an assembly file")
	uart := fs.String("uart", "", "bytes to feed the UART receiver")
	maxCycles := fs.Uint64("max", 20_000_000, "cycle budget (default for -app: the application's own)")
	unprotected := fs.Bool("unprotected", false, "run without the EILID/CASU monitor")
	list := fs.Bool("list", false, "list built-in applications")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "eilid-sim: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	if *list {
		for _, a := range apps.All() {
			fmt.Fprintln(stdout, a.Name)
		}
		return 0
	}

	var source, input string
	var budget uint64 = *maxCycles
	switch {
	case *appName != "":
		app, ok := apps.ByName(*appName)
		if !ok {
			fmt.Fprintf(stderr, "unknown application %q (try -list)\n", *appName)
			return 2
		}
		source, input, budget = app.Source, app.UARTInput, app.MaxCycles
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		source = string(b)
	default:
		fmt.Fprintln(stderr, "usage: eilid-sim -app NAME | -file firmware.s")
		return 2
	}
	if *uart != "" {
		input = *uart
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "max" {
			budget = *maxCycles
		}
	})

	pipeline, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The baseline device runs the original build alone, so firmware
	// that EILIDinst rejects still runs unprotected.
	opts := core.MachineOptions{Config: pipeline.Config()}
	var img *asm.Image
	if *unprotected {
		prog, err := pipeline.BuildOriginal("firmware.s", source)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		img = prog.Image
	} else {
		build, err := pipeline.Build("firmware.s", source)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		opts.ROM = pipeline.ROM()
		opts.Defense = core.DefenseEILID
		img = build.Instrumented.Image
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := m.LoadFirmware(img); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	m.EnablePredecode()
	if input != "" {
		m.UART.Feed([]byte(input))
	}
	m.Boot()
	res, err := m.Run(budget)
	if err != nil && err != core.ErrCycleBudget {
		fmt.Fprintln(stderr, err)
		return 1
	}

	mode := "EILID-protected"
	if *unprotected {
		mode = "unprotected baseline"
	}
	fmt.Fprintf(stdout, "device:   %s\n", mode)
	fmt.Fprintf(stdout, "halted:   %v (exit code %d)\n", res.Halted, res.ExitCode)
	fmt.Fprintf(stdout, "cycles:   %d (%.1f us at 100 MHz)\n", res.Cycles, float64(res.Cycles)/100)
	fmt.Fprintf(stdout, "insns:    %d\n", res.Insns)
	fmt.Fprintf(stdout, "resets:   %d\n", m.ResetCount)
	for _, v := range m.ResetReasons {
		fmt.Fprintf(stdout, "  reason: %v\n", v)
	}
	if tx := m.UART.Transcript(); tx != "" {
		fmt.Fprintf(stdout, "uart-tx:  %q\n", tx)
	}
	if len(m.Port1.Events) > 0 {
		fmt.Fprintf(stdout, "p1-events: %d transitions\n", len(m.Port1.Events))
	}
	if len(m.Port2.Events) > 0 {
		fmt.Fprintf(stdout, "p2-events: %d transitions\n", len(m.Port2.Events))
	}
	if r0, r1 := m.LCD.Row(0), m.LCD.Row(1); r0 != "                " || r1 != "                " {
		fmt.Fprintf(stdout, "lcd:      [%s]\n          [%s]\n", r0, r1)
	}
	return 0
}
