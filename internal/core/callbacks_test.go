package core_test

import (
	"fmt"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/casu"
	"eilid/internal/core"
)

// countingMonitor forwards every call to the monitor it wraps and counts
// the callbacks the CPU delivers and the violation polls the run loop
// makes. Installed as both Machine.Monitor and CPU.Watch, it sees what
// the bare monitor sees: it keeps the monitor's QuietFetch and
// QuietRead, so blocks filter fetches and spin loops skip through it.
type countingMonitor struct {
	casu.Defense
	fetch, read, write, irq, polls uint64
}

func (c *countingMonitor) OnFetch(prev, pc uint16) {
	c.fetch++
	c.Defense.OnFetch(prev, pc)
}

func (c *countingMonitor) OnRead(pc, addr uint16, byteWide bool) {
	c.read++
	c.Defense.OnRead(pc, addr, byteWide)
}

func (c *countingMonitor) OnWrite(pc, addr uint16, byteWide bool, value uint16) {
	c.write++
	c.Defense.OnWrite(pc, addr, byteWide, value)
}

func (c *countingMonitor) OnInterrupt(pc uint16, line int) {
	c.irq++
	c.Defense.OnInterrupt(pc, line)
}

func (c *countingMonitor) Violation() *casu.Violation {
	c.polls++
	return c.Defense.Violation()
}

// wantCallbacks pins, per Table IV app, the monitor traffic of one run
// as "insns fetch/read/write/irq polls" for the eilid, shadow and
// critvar columns in that order.
var wantCallbacks = map[string][3]string{
	"Charlieplexing":   {"344950 8875/1628/1345/0 10127", "334315 4372/475/476/0 4562", "334315 4182/475/476/0 4562"},
	"FireSensor":       {"208084 9641/4269/2815/135 12986", "191568 2592/1403/773/122 2969", "191568 2343/1403/773/122 2969"},
	"LcdSensor":        {"227407 4024/723/701/0 4658", "223156 2323/258/346/0 2438", "223156 2212/258/346/0 2438"},
	"LightSensor":      {"173671 6284/1933/1268/0 7649", "162925 1831/768/390/0 1932", "162925 1734/768/390/0 1932"},
	"SyringePump":      {"74313 2102/622/483/0 2521", "70626 519/211/176/0 532", "70626 507/211/176/0 532"},
	"TempSensor":       {"108086 4280/809/731/0 4936", "103179 2226/272/321/0 2322", "103179 2129/272/321/0 2322"},
	"UltrasonicRanger": {"113831 9127/1735/1062/0 10187", "105231 5433/802/358/0 5557", "105231 5294/802/358/0 5557"},
}

// wantFetchPerInsn pins each column's fetches per instruction over the
// seven apps, the quotient the benchmark's apps-monitored workload
// reports as casu.<defense>.on_fetch_per_insn.
var wantFetchPerInsn = map[string]string{"eilid": "0.03546", "shadow": "0.01620", "critvar": "0.01545"}

// TestBlockCallbacks gates monitor delivery exactly: for every Table IV
// app under every monitored column, the instructions run and the
// OnFetch, OnRead, OnWrite, OnInterrupt and Violation calls the monitor
// receives on the production path. The counts are simulated, so they
// do not depend on the host; a change to what blocks deliver, or to
// when the run loop polls, shows up here as a reviewed diff.
func TestBlockCallbacks(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var monitored []*core.DefenseSpec
	for _, spec := range core.Defenses() {
		if spec.New != nil {
			monitored = append(monitored, spec)
		}
	}
	if len(monitored) != 3 {
		t.Fatalf("%d monitored columns; the table pins 3", len(monitored))
	}
	insns := map[string]uint64{}
	fetches := map[string]uint64{}
	for _, app := range apps.All() {
		build, err := p.Build(app.Name+".s", app.Source)
		if err != nil {
			t.Fatal(err)
		}
		for col, spec := range monitored {
			m, err := attacks.TargetFor(p, build, spec).NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			c := &countingMonitor{Defense: m.Monitor}
			m.Monitor, m.CPU.Watch = c, c
			if app.UARTInput != "" {
				m.UART.Feed([]byte(app.UARTInput))
			}
			m.Boot()
			if _, err := m.Run(app.MaxCycles); err != nil {
				t.Fatalf("%s %s: %v", app.Name, spec.Name, err)
			}
			got := fmt.Sprintf("%d %d/%d/%d/%d %d", m.CPU.Insns, c.fetch, c.read, c.write, c.irq, c.polls)
			if want := wantCallbacks[app.Name][col]; got != want {
				t.Errorf("%s %s: %s, want %s (insns fetch/read/write/irq polls)", app.Name, spec.Name, got, want)
			}
			insns[spec.Name] += m.CPU.Insns
			fetches[spec.Name] += c.fetch
		}
	}
	for _, spec := range monitored {
		got := fmt.Sprintf("%.5f", float64(fetches[spec.Name])/float64(insns[spec.Name]))
		if want := wantFetchPerInsn[spec.Name]; got != want {
			t.Errorf("%s: %s fetches per instruction over the apps, want %s", spec.Name, got, want)
		}
	}
}
