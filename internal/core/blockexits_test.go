package core_test

import (
	"fmt"
	"testing"

	"eilid/internal/apps"
	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/cpu"
	"eilid/internal/scenario"
)

// wantExits pins CPU.BlockExits as "bus/stale/stop/irq/limit/other",
// followed by CPU.SkippedCycles, per job, for the baseline, eilid,
// shadow and critvar columns in that order. Before interrupt polls were
// hoisted to block entry and status reads were declared quiet, the apps
// returned to the machine loop 58,050 times on baseline (29.6 per
// kcycle) and the uart-fuzz items 159,738 times (166 per kcycle). Each
// uart-fuzz item skips all but ~1-2% of its 120,005-cycle budget in
// read_char's status poll once its input runs dry.
var wantExits = map[string][4]string{
	"Charlieplexing":      {"191/0/0/0/0/0 skip 0", "191/0/0/0/0/0 skip 0", "191/0/0/0/0/0 skip 0", "191/0/0/0/0/0 skip 0"},
	"FireSensor":          {"147/0/0/122/496/0 skip 28104", "146/0/0/146/545/0 skip 24282", "147/0/0/122/496/0 skip 28104", "147/0/0/122/496/0 skip 28104"},
	"LcdSensor":           {"148/0/0/0/24/0 skip 2664", "148/0/0/0/24/0 skip 2664", "148/0/0/0/24/0 skip 2664", "148/0/0/0/24/0 skip 2664"},
	"LightSensor":         {"102/0/0/0/192/0 skip 21312", "102/0/0/0/192/0 skip 21312", "102/0/0/0/192/0 skip 21312", "102/0/0/0/192/0 skip 21312"},
	"SyringePump":         {"94/0/0/0/0/0 skip 0", "94/0/0/0/0/0 skip 0", "94/0/0/0/0/0 skip 0", "94/0/0/0/0/0 skip 0"},
	"TempSensor":          {"129/0/0/0/32/0 skip 3552", "129/0/0/0/32/0 skip 3552", "129/0/0/0/32/0 skip 3552", "129/0/0/0/32/0 skip 3552"},
	"UltrasonicRanger":    {"126/0/0/0/228/0 skip 271548", "126/0/0/0/228/0 skip 271548", "126/0/0/0/228/0 skip 271548", "126/0/0/0/228/0 skip 271548"},
	"gen-00000-uart-fuzz": {"17/0/0/0/2/0 skip 119502", "17/0/0/0/2/0 skip 118032", "17/0/0/0/2/0 skip 119502", "17/0/0/0/2/0 skip 119502"},
	"gen-00008-uart-fuzz": {"2/0/0/0/2/0 skip 119922", "2/0/0/0/2/0 skip 119562", "2/0/0/0/2/0 skip 119922", "2/0/0/0/2/0 skip 119922"},
	"gen-00016-uart-fuzz": {"13/0/0/0/2/0 skip 119616", "13/0/0/0/2/0 skip 118440", "13/0/0/0/2/0 skip 119616", "13/0/0/0/2/0 skip 119616"},
	"gen-00024-uart-fuzz": {"22/0/0/0/2/0 skip 119364", "22/0/0/0/2/0 skip 117522", "22/0/0/0/2/0 skip 119364", "22/0/0/0/2/0 skip 119364"},
	"gen-00032-uart-fuzz": {"16/0/0/0/2/0 skip 119532", "16/0/0/0/2/0 skip 118134", "16/0/0/0/2/0 skip 119532", "16/0/0/0/2/0 skip 119532"},
	"gen-00040-uart-fuzz": {"7/0/0/0/2/0 skip 119784", "7/0/0/0/2/0 skip 119052", "7/0/0/0/2/0 skip 119784", "7/0/0/0/2/0 skip 119784"},
	"gen-00048-uart-fuzz": {"14/0/0/0/2/0 skip 119586", "14/0/0/0/2/0 skip 118338", "14/0/0/0/2/0 skip 119586", "14/0/0/0/2/0 skip 119586"},
	"gen-00056-uart-fuzz": {"9/0/0/0/3/0 skip 119724", "9/0/0/0/2/0 skip 118848", "9/0/0/0/3/0 skip 119724", "9/0/0/0/3/0 skip 119724"},
}

// TestBlockExits gates the block-exit counters exactly, reason by
// reason, and the cycles spin loops skipped, for every Table IV app and
// for the uart-fuzz items of scenario.Generate(1, 64), under every
// defense column. The counts are simulated, so they do not depend on
// the host.
func TestBlockExits(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defenses := core.Defenses()
	if len(defenses) != 4 {
		t.Fatalf("%d defense columns; the table pins 4", len(defenses))
	}
	seen := 0
	check := func(name string, col int, m *core.Machine) {
		t.Helper()
		e := m.CPU.BlockExits
		got := fmt.Sprintf("%d/%d/%d/%d/%d/%d skip %d", e[cpu.ExitBus], e[cpu.ExitStale], e[cpu.ExitStop],
			e[cpu.ExitIRQ], e[cpu.ExitLimit], e[cpu.ExitOther], m.CPU.SkippedCycles)
		want, ok := wantExits[name]
		if !ok {
			t.Errorf("%s: no pinned exits", name)
			return
		}
		if got != want[col] {
			t.Errorf("%s %s: exits %s, want %s (bus/stale/stop/irq/limit/other skip cycles)",
				name, defenses[col].Name, got, want[col])
		}
		seen++
	}
	for _, app := range apps.All() {
		build, err := p.Build(app.Name+".s", app.Source)
		if err != nil {
			t.Fatal(err)
		}
		for col, spec := range defenses {
			m, err := attacks.TargetFor(p, build, spec).NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			m.EnablePredecode()
			if app.UARTInput != "" {
				m.UART.Feed([]byte(app.UARTInput))
			}
			m.Boot()
			if _, err := m.Run(app.MaxCycles); err != nil {
				t.Fatalf("%s %s: %v", app.Name, spec.Name, err)
			}
			check(app.Name, col, m)
		}
	}
	for _, g := range scenario.Generate(1, 64).Items {
		if g.Family != "uart-fuzz" {
			continue
		}
		build, err := p.Build(g.Victim+".s", g.Scenario.Source)
		if err != nil {
			t.Fatal(err)
		}
		for col, spec := range defenses {
			tg := attacks.TargetFor(p, build, spec)
			m, err := tg.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			m.EnablePredecode()
			if _, err := attacks.ExecuteOn(m, tg, g.Scenario); err != nil {
				t.Fatal(err)
			}
			check(g.Scenario.Name, col, m)
		}
	}
	if seen != 4*len(wantExits) {
		t.Errorf("checked %d jobs, the table pins %d", seen, 4*len(wantExits))
	}
}
