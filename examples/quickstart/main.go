// Quickstart: the complete EILID flow on one application — build the
// trusted ROM, run the three-iteration instrumented compile, execute the
// original firmware on an unprotected device and the instrumented
// firmware on an EILID device, and compare cost and behaviour.
package main

import (
	"fmt"
	"log"

	"eilid/internal/apps"
	"eilid/internal/core"
)

func main() {
	// 1. Configure the device and build EILIDsw into the secure ROM.
	cfg := core.DefaultConfig()
	pipeline, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EILIDsw: %d bytes of trusted code, entry 0x%04x, exit 0x%04x\n",
		pipeline.ROM().Program.Image.Size(), pipeline.ROM().Entry, pipeline.ROM().Exit)

	// 2. Instrument the LightSensor firmware (paper Figure 2 pipeline).
	app, _ := apps.ByName("LightSensor")
	build, err := pipeline.Build("lightsensor.s", app.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumented %d sites (%d direct calls, %d returns, %d indirect, %d ISR)\n",
		build.Stats.Sites(), build.Stats.DirectCalls, build.Stats.Returns,
		build.Stats.IndirectCalls, build.Stats.ISRPrologues+build.Stats.ISREpilogues)
	fmt.Printf("binary size: %d -> %d bytes\n",
		build.Original.Image.Size(), build.Instrumented.Image.Size())

	// 3. Run both variants.
	run := func(protected bool) *apps.Inspection {
		opts := core.MachineOptions{Config: cfg}
		img := build.Original.Image
		if protected {
			opts.ROM = pipeline.ROM()
			opts.Defense = core.DefenseEILID
			img = build.Instrumented.Image
		}
		m, err := core.NewMachine(opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.LoadFirmware(img); err != nil {
			log.Fatal(err)
		}
		m.EnablePredecode()
		m.Boot()
		res, err := m.Run(app.MaxCycles)
		if err != nil {
			log.Fatal(err)
		}
		return apps.Inspect(m, res)
	}
	orig := run(false)
	inst := run(true)

	// 4. Same behaviour, bounded overhead, zero resets.
	if err := apps.Equivalent(orig, inst); err != nil {
		log.Fatalf("behaviour diverged: %v", err)
	}
	over := 100 * float64(inst.Cycles-orig.Cycles) / float64(orig.Cycles)
	fmt.Printf("run time: %d -> %d cycles (+%.2f%%), LED transitions: %d, resets: %d\n",
		orig.Cycles, inst.Cycles, over, len(inst.P1Events), inst.Resets)
	fmt.Println("original and instrumented firmware behave identically — EILID is transparent to benign code")
}
