package main

import (
	"strings"
	"testing"
)

func TestAttackSingleScenario(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-scenario", "stack-smash", "-v"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"stack-smash", "COMPROMISED", "cfi-check-failed", "yes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAttackList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"stack-smash", "rop-chain", "code-injection"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %q:\n%s", want, out.String())
		}
	}
}

func TestAttackFlagErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-scenario", "no-such"}, &out, &errb); code != 2 {
		t.Errorf("unknown scenario: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	// A stray argument would drop the -scenario after it.
	if code := run([]string{"stray", "-scenario", "stack-smash"}, &out, &errb); code != 2 {
		t.Errorf("stray argument: exit %d, want 2", code)
	}
	// The sweep runs on the fleet runner's pool; it has no worker knob.
	if code := run([]string{"-workers", "4"}, &out, &errb); code != 2 {
		t.Errorf("-workers: exit %d, want 2", code)
	}
}

// TestAttackFullSweep runs the whole suite through the fleet runner —
// the command's happy path: every scenario defended, exit 0.
func TestAttackFullSweep(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	if n := strings.Count(out.String(), "yes"); n != 6 {
		t.Errorf("defence matrix shows %d defended scenarios, want 6:\n%s", n, out.String())
	}
}
