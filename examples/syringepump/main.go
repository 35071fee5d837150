// Syringepump: drive the paper's indirect-dispatch workload with a custom
// command script, then show forward-edge CFI catching a corrupted
// dispatch-table pointer.
package main

import (
	"fmt"
	"log"
	"strings"

	"eilid/internal/apps"
	"eilid/internal/core"
)

func main() {
	cfg := core.DefaultConfig()
	pipeline, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, _ := apps.ByName("SyringePump")
	build, err := pipeline.Build("syringepump.s", app.Source)
	if err != nil {
		log.Fatal(err)
	}

	newMachine := func() *core.Machine {
		m, err := core.NewMachine(core.MachineOptions{Config: cfg, ROM: pipeline.ROM(), Defense: core.DefenseEILID})
		if err != nil {
			log.Fatal(err)
		}
		if err := m.LoadFirmware(build.Instrumented.Image); err != nil {
			log.Fatal(err)
		}
		m.EnablePredecode()
		return m
	}

	// A custom prescription: dispense 12, withdraw 3, dispense 7.
	script := "D012\nW003\nD007\nQ"
	m := newMachine()
	m.UART.Feed([]byte(script))
	m.Boot()
	res, err := m.Run(app.MaxCycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("script %q -> %d stepper transitions, UART reply %q, %d cycles\n",
		script, len(m.Port2.Events), m.UART.Transcript(), res.Cycles)
	fmt.Printf("function table registered at boot: %04x\n", m.FunctionTable(cfg))

	// Now the attack: mid-run, a memory bug flips the dispense handler
	// pointer inside the command table region... the table itself is in
	// flash, so the attacker corrupts the function pointer register path
	// instead: overwrite r11 (the loaded handler) right before the call.
	m = newMachine()
	m.UART.Feed([]byte("D002\nQ"))
	m.Boot()
	// Run to the forward-edge guard (the instrumented load of the
	// dispatch target) and corrupt the handler register there, modelling
	// a function pointer that was trampled in memory before the load.
	guard := findIndirectGuard(build)
	if res, err := m.RunTo(guard, app.MaxCycles); err != nil || res.Resets > 0 {
		log.Fatalf("never reached the indirect guard: %v (%d resets)", err, res.Resets)
	}
	m.CPU.R[11] = 0xE000 // divert the dispatch to an arbitrary address
	resAtk, err := m.RunUntilReset(app.MaxCycles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hijacked dispatch: resets=%d reason=%v\n", resAtk.Resets, resAtk.LastReason)
	if resAtk.Resets > 0 {
		fmt.Println("forward-edge CFI rejected the unregistered call target — device safely reset")
	}
}

// findIndirectGuard locates the instrumented "mov r11, r6" that feeds
// NS_EILID_check_ind before the pump's indirect dispatch.
func findIndirectGuard(build *core.BuildResult) uint16 {
	for _, e := range build.Instrumented.Listing.Entries {
		if e.IsInstr && strings.Contains(e.Source, "EILID: indirect target") {
			return e.Addr
		}
	}
	log.Fatal("indirect guard not found")
	return 0
}
