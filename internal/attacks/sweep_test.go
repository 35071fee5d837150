package attacks_test

import (
	"strings"
	"testing"

	"eilid/internal/attacks"
	"eilid/internal/core"
	"eilid/internal/fleet"
)

// sweep runs the whole handcrafted suite against the baseline and the
// EILID device through the fleet runner — the batch eilid-attack and
// examples/attackdemo print their defence matrix from.
func sweep(t *testing.T) (*fleet.Report, []fleet.JobResult) {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runner, err := fleet.NewRunner(p, fleet.BatchSpec{Matrix: fleet.MatrixSpec{
		NoApps:   true,
		Defenses: []string{core.DefenseBaseline.Name, core.DefenseEILID.Name},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var results []fleet.JobResult
	rep, _, err := runner.Run(nil, nil, func(jr fleet.JobResult) { results = append(results, jr) })
	if err != nil {
		t.Fatal(err)
	}
	return rep, results
}

// TestAllScenariosDefended: every scenario compromises the baseline
// and is defended on the EILID device — a reset for its declared
// reason, no attacker code run — and the runner's verdict on both jobs
// agrees.
func TestAllScenariosDefended(t *testing.T) {
	_, results := sweep(t)
	scs := attacks.Scenarios()
	if len(results) != 2*len(scs) {
		t.Fatalf("sweep returned %d jobs for %d scenarios", len(results), len(scs))
	}
	for i, sc := range scs {
		base, prot := results[2*i], results[2*i+1]
		t.Run(sc.Name, func(t *testing.T) {
			if base.Err != "" || prot.Err != "" {
				t.Fatalf("job errors: baseline %q, eilid %q", base.Err, prot.Err)
			}
			if !base.Compromised {
				t.Errorf("baseline NOT compromised (halted=%v exit=0x%02x): the threat must be demonstrable",
					base.Halted, base.ExitCode)
			}
			if prot.Compromised {
				t.Error("attacker code executed on the EILID device")
			}
			if prot.Resets == 0 {
				t.Error("EILID device did not reset")
			}
			if !strings.Contains(prot.Reason, sc.WantReason) {
				t.Errorf("reset reason %q, want %q", prot.Reason, sc.WantReason)
			}
			if !base.CheckOK || !prot.CheckOK {
				t.Errorf("scenario not fully defended: baseline %+v, eilid %+v", base, prot)
			}
		})
	}
}

// TestRunAll: the sweep runs each scenario once per defense, in
// Scenarios() order with the baseline job first (eilid-attack pairs
// job 2i and 2i+1 with scenario i), and covers every paper property
// plus the CASU-layer rules.
func TestRunAll(t *testing.T) {
	rep, results := sweep(t)
	scs := attacks.Scenarios()
	if len(results) != 2*len(scs) || rep.Jobs != len(results) {
		t.Fatalf("sweep returned %d jobs (report %d) for %d scenarios", len(results), rep.Jobs, len(scs))
	}
	if rep.Failures != 0 || rep.ChecksFailed != 0 {
		t.Errorf("report: %d failures, %d failed checks", rep.Failures, rep.ChecksFailed)
	}
	props := map[string]bool{}
	for i, sc := range scs {
		for d, want := range []string{core.DefenseBaseline.Name, core.DefenseEILID.Name} {
			jr := results[2*i+d]
			if jr.Kind != "attack" || jr.Name != sc.Name || jr.Defense != want {
				t.Errorf("job %d is %s %q under %s, want attack %q under %s",
					jr.Index, jr.Kind, jr.Name, jr.Defense, sc.Name, want)
			}
		}
		props[sc.Property] = true
	}
	for _, want := range []string{"P1", "P2", "P3", "W^X", "SecureData"} {
		if !props[want] {
			t.Errorf("no scenario covers property %s", want)
		}
	}
}
