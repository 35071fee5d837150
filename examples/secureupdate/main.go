// Secureupdate: the CASU lifecycle EILID inherits — the only way program
// memory changes is an authenticated, rollback-protected update. The
// demo installs firmware v1, updates to v2 with a properly signed
// package, and shows tampered / replayed / rogue-keyed packages being
// rejected, while run-time writes to flash reset the device.
package main

import (
	"fmt"
	"log"

	"eilid/internal/apps"
	"eilid/internal/casu"
	"eilid/internal/core"
)

func main() {
	cfg := core.DefaultConfig()
	pipeline, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	key := []byte("per-device-update-key-0123456789")
	authority := casu.NewAuthority(key)
	updater := casu.NewUpdater(key, cfg.Layout)

	m, err := core.NewMachine(core.MachineOptions{Config: cfg, ROM: pipeline.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		log.Fatal(err)
	}

	// v1: the temperature logger.
	temp, _ := apps.ByName("TempSensor")
	v1, err := pipeline.Build("temp.s", temp.Source)
	if err != nil {
		log.Fatal(err)
	}
	// Interrupt vectors are provisioned at manufacture (they are not part
	// of the updatable region); the signed package covers user PMEM only.
	provisionVectors(m, v1)
	img, base := v1.Instrumented.Image.BytesInRange(cfg.Layout.PMEMStart, cfg.Layout.PMEMEnd)
	pkg1 := authority.Sign(base, 1, img)
	if err := updater.Apply(m.Space, pkg1); err != nil {
		log.Fatal(err)
	}
	// Snapshot the installed code into a decode cache for the fast path.
	m.EnablePredecode()
	m.Boot()
	if _, err := m.Run(temp.MaxCycles); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v1 installed and ran: UART %q...\n", m.UART.Transcript()[:12])

	// v2: the light sensor, signed with a higher version.
	light, _ := apps.ByName("LightSensor")
	v2, err := pipeline.Build("light.s", light.Source)
	if err != nil {
		log.Fatal(err)
	}
	img2, base2 := v2.Instrumented.Image.BytesInRange(cfg.Layout.PMEMStart, cfg.Layout.PMEMEnd)
	pkg2 := authority.Sign(base2, 2, img2)

	// Attacks on the update channel first:
	tampered := pkg2
	tampered.Data = append([]byte(nil), pkg2.Data...)
	tampered.Data[0] ^= 0xFF
	fmt.Printf("tampered image:  %v\n", updater.Apply(m.Space, tampered))

	rogue := casu.NewAuthority([]byte("attacker-key-....................")).Sign(base2, 3, img2)
	fmt.Printf("rogue authority: %v\n", updater.Apply(m.Space, rogue))

	fmt.Printf("replayed v1:     %v\n", updater.Apply(m.Space, pkg1))

	// The genuine update goes through (vectors re-provisioned for the new
	// firmware's ISR layout).
	if err := updater.Apply(m.Space, pkg2); err != nil {
		log.Fatal(err)
	}
	provisionVectors(m, v2)
	m.EnablePredecode()
	m.Boot()
	if _, err := m.Run(light.MaxCycles); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v2 installed and ran: %d LED transitions, firmware version %d\n",
		len(m.Port1.Events), updater.Version())

	// And at run time, flash stays immutable: self-modifying code resets.
	selfmod := `
.org 0xE000
reset:
    mov #0x0A00, sp
main:
    mov #0xBEEF, &0xE800
spin:
    jmp spin
.org 0xFFFE
.word reset
`
	sm, err := pipeline.Build("selfmod.s", selfmod)
	if err != nil {
		log.Fatal(err)
	}
	m2, err := core.NewMachine(core.MachineOptions{Config: cfg, ROM: pipeline.ROM(), Defense: core.DefenseEILID})
	if err != nil {
		log.Fatal(err)
	}
	if err := m2.LoadFirmware(sm.Instrumented.Image); err != nil {
		log.Fatal(err)
	}
	m2.EnablePredecode()
	m2.Boot()
	res, err := m2.RunUntilReset(100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run-time flash write: resets=%d reason=%v\n", res.Resets, res.LastReason)
}

// provisionVectors writes the interrupt vector table directly (the
// factory step; the IVT is outside the updatable region by design).
func provisionVectors(m *core.Machine, build *core.BuildResult) {
	for _, c := range build.Instrumented.Image.Chunks() {
		if c.Addr >= m.Space.Layout.IVTStart {
			if err := m.Space.LoadImage(c.Addr, c.Data); err != nil {
				log.Fatal(err)
			}
		}
	}
}
