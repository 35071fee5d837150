package attacks

import (
	"testing"

	"eilid/internal/core"
)

func pipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildOf builds a scenario's victim firmware.
func buildOf(t *testing.T, p *core.Pipeline, sc Scenario) *core.BuildResult {
	t.Helper()
	build, err := p.Build(sc.Name+".s", sc.Source)
	if err != nil {
		t.Fatal(err)
	}
	return build
}

// outcome runs sc once on a fresh machine of the build under a defense:
// the Target and ExecuteOn sequence every fleet job goes through.
func outcome(t *testing.T, p *core.Pipeline, build *core.BuildResult, spec *core.DefenseSpec, sc Scenario) Outcome {
	t.Helper()
	target := TargetFor(p, build, spec)
	m, err := target.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	o, err := ExecuteOn(m, target, sc)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestScenariosHaveMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Description == "" || sc.Property == "" || sc.WantReason == "" {
			t.Errorf("scenario %+v missing metadata", sc.Name)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Payload == nil && sc.PokeAt == "" && !sc.Resident {
			t.Errorf("%s: no adversary action defined", sc.Name)
		}
	}
}

func TestShellcodeIsValid(t *testing.T) {
	sc := Shellcode()
	if len(sc) < 4 || len(sc)%2 != 0 {
		t.Fatalf("shellcode = % x", sc)
	}
}

func TestBenignPayloadIsHarmless(t *testing.T) {
	// The overflow victim with an in-bounds message behaves normally on
	// BOTH devices: EILID adds no false positives.
	p := pipeline(t)
	sc := stackSmash()
	sc.Payload = func(map[string]uint16) []byte { return []byte{3, 'o', 'k', '!'} }
	build := buildOf(t, p, sc)
	if o := outcome(t, p, build, core.DefenseBaseline, sc); !o.Halted || o.ExitCode != 0 {
		t.Errorf("baseline benign run: %+v", o)
	}
	if o := outcome(t, p, build, core.DefenseEILID, sc); !o.Halted || o.ExitCode != 0 || o.Resets != 0 {
		t.Errorf("protected benign run: %+v", o)
	}
}
