package attacks

import (
	"strings"
	"testing"

	"eilid/internal/core"
)

// TestScenarioConformance is the handcrafted suite's declarative
// contract, stated table-driven over Scenarios(): every scenario must
// compromise the unprotected baseline (the threat is demonstrable), and
// the EILID device must reset for (a reason containing) its declared
// WantReason without ever being compromised. The suite as a whole must
// keep at least one scenario on each of the paper's properties
// (P1/P2/P3) and each CASU-layer rule (W^X, SecureData). The generated
// families in internal/scenario mutate these exemplars, so a scenario
// drifting from its declared reason would silently skew thousands of
// generated oracles — this test pins the anchor points. The same
// sweep through the fleet runner, and the runner's verdict on it, is
// pinned by TestAllScenariosDefended and TestRunAll.
func TestScenarioConformance(t *testing.T) {
	p := pipeline(t)
	covered := map[string][]string{}
	for _, sc := range Scenarios() {
		sc := sc
		covered[sc.Property] = append(covered[sc.Property], sc.Name)
		t.Run(sc.Name, func(t *testing.T) {
			build := buildOf(t, p, sc)
			if o := outcome(t, p, build, core.DefenseBaseline, sc); !o.Compromised {
				t.Errorf("baseline NOT compromised (halted=%v exit=0x%02x): the threat must be demonstrable",
					o.Halted, o.ExitCode)
			}
			o := outcome(t, p, build, core.DefenseEILID, sc)
			if o.Compromised {
				t.Errorf("attacker code executed on the EILID device")
			}
			if o.Resets == 0 {
				t.Fatalf("EILID device never reset; outcome %+v", o)
			}
			if !strings.Contains(o.Reason, sc.WantReason) {
				t.Errorf("EILID reset reason %q does not contain declared WantReason %q", o.Reason, sc.WantReason)
			}
		})
	}
	for _, prop := range []string{"P1", "P2", "P3", "W^X", "SecureData"} {
		if len(covered[prop]) == 0 {
			t.Errorf("no scenario covers property %s", prop)
		}
	}
	for prop, names := range covered {
		t.Logf("%s: %v", prop, names)
	}
}
