package core_test

import (
	"testing"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/mem"
	"eilid/internal/scenario"
)

// attackRun is one scenario executed through attacks.ExecuteOn: its
// outcome, every observable of the machine it ran on, and all of RAM.
type attackRun struct {
	outcome attacks.Outcome
	obs     observed
	ram     []byte
}

// runAttack executes sc against tg on a fresh machine, watched by an
// eventRecorder. The production machine keeps the target's decode cache
// and is watched through the defense's own filter, as the fleet runs
// it; the reference has no cache and hears every event.
func runAttack(t *testing.T, tg attacks.Target, sc attacks.Scenario, production bool) (attackRun, admitFilter) {
	t.Helper()
	m, err := tg.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventRecorder{inner: m.CPU.Watch, clock: func() uint64 { return m.CPU.Cycles }}
	filter := filterOf(m)
	m.CPU.Watch = rec
	if production {
		m.CPU.Watch = &quietRecorder{eventRecorder: rec, filter: filter}
	} else {
		reference(m)
	}
	o, err := attacks.ExecuteOn(m, tg, sc)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunResult{Cycles: o.Cycles, Insns: o.Insns, Halted: o.Halted, ExitCode: o.ExitCode, Resets: o.Resets}
	return attackRun{outcome: o, obs: observation(m, rec, res, nil), ram: m.Space.ReadRaw(0, mem.Size)}, filter
}

// attack is one scenario with the build it runs on.
type attack struct {
	sc    attacks.Scenario
	build *core.BuildResult
}

// attackSuite is the six handcrafted scenarios (EILID's P1–P3, W⊕X and
// secure data) and scenario.Generate(1, 16), every generated family
// twice. Scenarios that share a victim share its build.
func attackSuite(t *testing.T, p *core.Pipeline) []attack {
	t.Helper()
	var list []attack
	handcrafted := map[string]*core.BuildResult{} // by source: stack-smash and rop-chain share a victim
	for _, sc := range attacks.Scenarios() {
		if handcrafted[sc.Source] == nil {
			build, err := p.Build(sc.Name+".s", sc.Source)
			if err != nil {
				t.Fatal(err)
			}
			handcrafted[sc.Source] = build
		}
		list = append(list, attack{sc, handcrafted[sc.Source]})
	}
	batch := scenario.Generate(1, 16)
	victims := map[string]*core.BuildResult{}
	for _, v := range batch.Victims {
		build, err := p.Build(v.Name+".s", v.Source)
		if err != nil {
			t.Fatal(err)
		}
		victims[v.Name] = build
	}
	families := map[string]int{}
	for _, g := range batch.Items {
		families[g.Family]++
		list = append(list, attack{g.Scenario, victims[g.Victim]})
	}
	for _, f := range scenario.FamilyNames() {
		if families[f] != 2 {
			t.Fatalf("family %s has %d items, want 2", f, families[f])
		}
	}
	return list
}

// TestPredecodeDifferentialAttacks runs attacks, where control flow goes
// wild — returns into the stack, forged interrupt frames, monitor
// resets in the middle of a block — on the production path and on the
// reference: the attackSuite in every defense column. The outcome,
// every reset reason, the registers, the peripheral state, the watcher
// stream (up to the quiet events the defense filters) and every byte of
// RAM must match.
func TestPredecodeDifferentialAttacks(t *testing.T) {
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	list := attackSuite(t, p)
	for _, a := range list {
		t.Run(a.sc.Name, func(t *testing.T) {
			for _, spec := range core.Defenses() {
				what := a.sc.Name + " defense=" + spec.Name
				tg := attacks.TargetFor(p, a.build, spec)
				prod, filter := runAttack(t, tg, a.sc, true)
				ref, _ := runAttack(t, tg, a.sc, false)
				if prod.outcome != ref.outcome {
					t.Errorf("%s: outcome %+v, reference %+v", what, prod.outcome, ref.outcome)
				}
				compareAdmitted(t, what, prod.obs, ref.obs, filter)
				for addr := range prod.ram {
					if prod.ram[addr] != ref.ram[addr] {
						t.Errorf("%s: RAM differs first at 0x%04x: %02x, reference %02x", what, addr, prod.ram[addr], ref.ram[addr])
						break
					}
				}
			}
		})
	}
}
